#include "flow/spec.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "sim/check.hpp"

namespace vapres::flow {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ModelError("spec line " + std::to_string(line) + ": " + msg);
}

struct Tokenizer {
  std::vector<std::vector<std::string>> lines;  // tokenized, per line
  std::vector<int> line_numbers;

  explicit Tokenizer(const std::string& text) {
    std::istringstream in(text);
    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
      ++number;
      const auto hash = raw.find('#');
      if (hash != std::string::npos) raw.erase(hash);
      std::istringstream ls(raw);
      std::vector<std::string> tokens;
      std::string tok;
      while (ls >> tok) tokens.push_back(tok);
      if (!tokens.empty()) {
        lines.push_back(std::move(tokens));
        line_numbers.push_back(number);
      }
    }
  }
};

int to_int(const std::string& tok, int line) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(tok, &pos);
    if (pos != tok.size()) fail(line, "trailing characters in '" + tok + "'");
    return v;
  } catch (const std::exception&) {
    fail(line, "expected an integer, got '" + tok + "'");
  }
}

double to_double(const std::string& tok, int line) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(tok, &pos);
    if (pos != tok.size()) fail(line, "trailing characters in '" + tok + "'");
    return v;
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + tok + "'");
  }
}

void expect_argc(const std::vector<std::string>& tokens, std::size_t argc,
                 int line) {
  if (tokens.size() != argc + 1) {
    fail(line, "'" + tokens[0] + "' takes " + std::to_string(argc) +
                   " argument(s), got " +
                   std::to_string(tokens.size() - 1));
  }
}

}  // namespace

core::SystemParams parse_system_spec(const std::string& text) {
  Tokenizer tz(text);
  core::SystemParams params;
  params.rsbs.clear();

  enum class Scope { kTop, kRsb, kFloorplan };
  Scope scope = Scope::kTop;
  core::RsbParams rsb;
  bool saw_system = false;

  for (std::size_t i = 0; i < tz.lines.size(); ++i) {
    const auto& t = tz.lines[i];
    const int ln = tz.line_numbers[i];
    const std::string& key = t[0];

    if (scope == Scope::kRsb) {
      if (key == "end") {
        params.rsbs.push_back(rsb);
        scope = Scope::kTop;
      } else if (key == "prrs") {
        expect_argc(t, 1, ln);
        rsb.num_prrs = to_int(t[1], ln);
      } else if (key == "ioms") {
        expect_argc(t, 1, ln);
        rsb.num_ioms = to_int(t[1], ln);
      } else if (key == "width") {
        expect_argc(t, 1, ln);
        rsb.width_bits = to_int(t[1], ln);
      } else if (key == "lanes") {
        expect_argc(t, 2, ln);
        rsb.kr = to_int(t[1], ln);
        rsb.kl = to_int(t[2], ln);
      } else if (key == "ports") {
        expect_argc(t, 2, ln);
        rsb.ki = to_int(t[1], ln);
        rsb.ko = to_int(t[2], ln);
      } else if (key == "fifo_depth") {
        expect_argc(t, 1, ln);
        rsb.fifo_depth = to_int(t[1], ln);
      } else if (key == "prr_size") {
        expect_argc(t, 2, ln);
        rsb.prr_height_clbs = to_int(t[1], ln);
        rsb.prr_width_clbs = to_int(t[2], ln);
      } else {
        fail(ln, "unknown rsb key '" + key + "'");
      }
      continue;
    }

    if (scope == Scope::kFloorplan) {
      if (key == "end") {
        scope = Scope::kTop;
      } else if (key == "prr") {
        expect_argc(t, 4, ln);
        params.prr_rects.push_back(fabric::ClbRect{
            to_int(t[1], ln), to_int(t[2], ln), to_int(t[3], ln),
            to_int(t[4], ln)});
      } else {
        fail(ln, "unknown floorplan key '" + key + "'");
      }
      continue;
    }

    if (key == "system") {
      expect_argc(t, 1, ln);
      params.name = t[1];
      saw_system = true;
    } else if (key == "device") {
      if (t.size() == 2 && t[1] == "xc4vlx25") {
        params.device = fabric::DeviceGeometry::xc4vlx25();
      } else if (t.size() == 2 && t[1] == "xc4vlx60") {
        params.device = fabric::DeviceGeometry::xc4vlx60();
      } else if (t.size() == 4 && t[1] == "custom") {
        params.device = fabric::DeviceGeometry(
            "custom", to_int(t[2], ln), to_int(t[3], ln));
      } else {
        fail(ln, "device must be xc4vlx25, xc4vlx60, or custom R C");
      }
    } else if (key == "clock") {
      expect_argc(t, 1, ln);
      params.system_clock_mhz = to_double(t[1], ln);
    } else if (key == "prr_clocks") {
      expect_argc(t, 2, ln);
      params.prr_clock_a_mhz = to_double(t[1], ln);
      params.prr_clock_b_mhz = to_double(t[2], ln);
    } else if (key == "sdram") {
      expect_argc(t, 1, ln);
      params.sdram_bytes = to_int(t[1], ln);
    } else if (key == "rsb") {
      expect_argc(t, 0, ln);
      rsb = core::RsbParams{};
      scope = Scope::kRsb;
    } else if (key == "floorplan") {
      expect_argc(t, 0, ln);
      scope = Scope::kFloorplan;
    } else {
      fail(ln, "unknown key '" + key + "'");
    }
  }

  VAPRES_REQUIRE(scope == Scope::kTop, "spec: unterminated block");
  VAPRES_REQUIRE(saw_system, "spec: missing 'system <name>'");
  VAPRES_REQUIRE(!params.rsbs.empty(), "spec: no rsb block");
  params.validate();
  return params;
}

core::SystemParams load_system_spec(const std::string& path) {
  std::ifstream in(path);
  VAPRES_REQUIRE(in.good(), "cannot open spec file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_system_spec(text.str());
}

std::string emit_system_spec(const core::SystemParams& params) {
  std::ostringstream os;
  os << "# VAPRES system specification (generated)\n"
     << "system " << params.name << "\n"
     << "device " << params.device.name();
  if (params.device.name() == "custom") {
    os << " " << params.device.clb_rows() << " " << params.device.clb_cols();
  }
  os << "\n"
     << "clock " << params.system_clock_mhz << "\n"
     << "prr_clocks " << params.prr_clock_a_mhz << " "
     << params.prr_clock_b_mhz << "\n"
     << "sdram " << params.sdram_bytes << "\n";
  for (const core::RsbParams& rsb : params.rsbs) {
    os << "rsb\n"
       << "  prrs " << rsb.num_prrs << "\n"
       << "  ioms " << rsb.num_ioms << "\n"
       << "  width " << rsb.width_bits << "\n"
       << "  lanes " << rsb.kr << " " << rsb.kl << "\n"
       << "  ports " << rsb.ki << " " << rsb.ko << "\n"
       << "  fifo_depth " << rsb.fifo_depth << "\n"
       << "  prr_size " << rsb.prr_height_clbs << " " << rsb.prr_width_clbs
       << "\n"
       << "end\n";
  }
  if (!params.prr_rects.empty()) {
    os << "floorplan\n";
    for (const auto& r : params.prr_rects) {
      os << "  prr " << r.row << " " << r.col << " " << r.height << " "
         << r.width << "\n";
    }
    os << "end\n";
  }
  return os.str();
}

}  // namespace vapres::flow
