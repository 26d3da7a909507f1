#include "snap/format.hpp"

#include <bit>
#include <cstring>

#include "sim/check.hpp"

namespace vapres::snap {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t read_u32_at(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t read_u64_at(const std::string& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

SnapshotWriter::SnapshotWriter(std::uint64_t epoch) : epoch_(epoch) {
  append_u32(blob_, kMagic);
  append_u32(blob_, kVersion);
  append_u64(blob_, epoch_);
}

void SnapshotWriter::begin_section(const std::string& name) {
  VAPRES_REQUIRE(!finished_, "snapshot writer already finished");
  VAPRES_REQUIRE(!in_section_, "nested snapshot section " + name);
  VAPRES_REQUIRE(!name.empty() && name.size() <= 64,
                 "snapshot section name must be 1..64 chars");
  section_name_ = name;
  payload_.clear();
  in_section_ = true;
}

void SnapshotWriter::end_section() {
  VAPRES_REQUIRE(in_section_, "end_section without begin_section");
  append_u32(blob_, static_cast<std::uint32_t>(section_name_.size()));
  blob_.append(section_name_);
  append_u64(blob_, payload_.size());
  append_u64(blob_, fnv1a(payload_.data(), payload_.size()));
  blob_.append(reinterpret_cast<const char*>(payload_.data()),
               payload_.size());
  in_section_ = false;
}

void SnapshotWriter::u8(std::uint8_t v) {
  VAPRES_REQUIRE(in_section_, "snapshot write outside a section");
  payload_.push_back(v);
}

void SnapshotWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void SnapshotWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void SnapshotWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  for (const char c : s) u8(static_cast<std::uint8_t>(c));
}

std::string SnapshotWriter::finish() {
  VAPRES_REQUIRE(!in_section_, "finish inside an open section");
  finished_ = true;
  return std::move(blob_);
}

SnapshotReader::SnapshotReader(std::string blob) : blob_(std::move(blob)) {
  VAPRES_REQUIRE(blob_.size() >= 16, "snapshot truncated: missing header");
  VAPRES_REQUIRE(read_u32_at(blob_, 0) == SnapshotWriter::kMagic,
                 "snapshot magic mismatch (not a VAPRES snapshot)");
  const std::uint32_t version = read_u32_at(blob_, 4);
  VAPRES_REQUIRE(version == SnapshotWriter::kVersion,
                 "unsupported snapshot version " + std::to_string(version));
  epoch_ = read_u64_at(blob_, 8);

  std::size_t at = 16;
  while (at < blob_.size()) {
    VAPRES_REQUIRE(blob_.size() - at >= 4,
                   "snapshot truncated in section header");
    const std::uint32_t name_len = read_u32_at(blob_, at);
    at += 4;
    VAPRES_REQUIRE(name_len >= 1 && name_len <= 64 &&
                       blob_.size() - at >= name_len,
                   "snapshot truncated in section name");
    Section s;
    s.name = blob_.substr(at, name_len);
    at += name_len;
    VAPRES_REQUIRE(blob_.size() - at >= 16,
                   "snapshot truncated in section length/digest");
    const std::uint64_t payload_size = read_u64_at(blob_, at);
    const std::uint64_t digest = read_u64_at(blob_, at + 8);
    at += 16;
    VAPRES_REQUIRE(blob_.size() - at >= payload_size,
                   "snapshot truncated in section '" + s.name + "' payload");
    s.offset = at;
    s.size = static_cast<std::size_t>(payload_size);
    VAPRES_REQUIRE(fnv1a(blob_.data() + s.offset, s.size) == digest,
                   "snapshot section '" + s.name + "' digest mismatch");
    for (const Section& prev : sections_) {
      VAPRES_REQUIRE(prev.name != s.name,
                     "duplicate snapshot section '" + s.name + "'");
    }
    at += s.size;
    sections_.push_back(std::move(s));
  }
}

bool SnapshotReader::has_section(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

std::vector<std::string> SnapshotReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

const SnapshotReader::Section& SnapshotReader::find(
    const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return s;
  }
  VAPRES_REQUIRE(false, "snapshot has no section '" + name + "'");
  __builtin_unreachable();
}

void SnapshotReader::open_section(const std::string& name) const {
  const Section& s = find(name);
  cursor_ = s.offset;
  cursor_end_ = s.offset + s.size;
}

std::size_t SnapshotReader::remaining() const { return cursor_end_ - cursor_; }

void SnapshotReader::need(std::size_t bytes) const {
  VAPRES_REQUIRE(cursor_ + bytes <= cursor_end_,
                 "snapshot section read past payload end");
}

std::uint8_t SnapshotReader::u8() const {
  need(1);
  return static_cast<std::uint8_t>(blob_[cursor_++]);
}

std::uint32_t SnapshotReader::u32() const {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t SnapshotReader::u64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
  return v;
}

std::int64_t SnapshotReader::i64() const {
  return static_cast<std::int64_t>(u64());
}

double SnapshotReader::f64() const { return std::bit_cast<double>(u64()); }

std::uint32_t SnapshotReader::count(std::size_t min_bytes) const {
  const std::uint32_t n = u32();
  VAPRES_REQUIRE(static_cast<std::uint64_t>(n) * min_bytes <= remaining(),
                 "snapshot list count " + std::to_string(n) +
                     " overruns its section");
  return n;
}

std::string SnapshotReader::str() const {
  const std::uint32_t len = count(1);
  std::string s = blob_.substr(cursor_, len);
  cursor_ += len;
  return s;
}

}  // namespace vapres::snap
