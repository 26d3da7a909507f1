#include "comm/switch_box.hpp"

#include "sim/check.hpp"
#include "sim/fault.hpp"

namespace vapres::comm {

SwitchBox::SwitchBox(std::string name, SwitchBoxShape shape)
    : name_(std::move(name)), shape_(shape) {
  VAPRES_REQUIRE(shape_.kr >= 0 && shape_.kl >= 0 && shape_.ki >= 0 &&
                     shape_.ko >= 0,
                 "switch box lane counts must be non-negative");
  VAPRES_REQUIRE(shape_.kr + shape_.kl > 0,
                 "switch box needs at least one inter-box lane");
  sources_.assign(static_cast<std::size_t>(shape_.num_inputs()), nullptr);
  regs_.assign(sources_.size(), kIdleFlit);
  regs_next_.assign(sources_.size(), kIdleFlit);
  selects_.assign(static_cast<std::size_t>(shape_.num_outputs()), -1);
  outputs_.assign(selects_.size(), kIdleFlit);
  readers_.assign(selects_.size(), nullptr);
  stuck_.assign(selects_.size(), false);
  sim::FaultInjector::instance().add_commit_site(this);
}

SwitchBox::~SwitchBox() {
  sim::FaultInjector::instance().remove_commit_site(this);
}

void SwitchBox::check_input(int port) const {
  VAPRES_REQUIRE(port >= 0 && port < shape_.num_inputs(),
                 name_ + ": input port out of range");
}

void SwitchBox::check_output(int port) const {
  VAPRES_REQUIRE(port >= 0 && port < shape_.num_outputs(),
                 name_ + ": output port out of range");
}

int SwitchBox::input_right_lane(int lane) const {
  VAPRES_REQUIRE(lane >= 0 && lane < shape_.kr, name_ + ": bad right lane");
  return lane;
}
int SwitchBox::input_left_lane(int lane) const {
  VAPRES_REQUIRE(lane >= 0 && lane < shape_.kl, name_ + ": bad left lane");
  return shape_.kr + lane;
}
int SwitchBox::input_producer(int channel) const {
  VAPRES_REQUIRE(channel >= 0 && channel < shape_.ko,
                 name_ + ": bad producer channel");
  return shape_.kr + shape_.kl + channel;
}
int SwitchBox::output_right_lane(int lane) const {
  VAPRES_REQUIRE(lane >= 0 && lane < shape_.kr, name_ + ": bad right lane");
  return lane;
}
int SwitchBox::output_left_lane(int lane) const {
  VAPRES_REQUIRE(lane >= 0 && lane < shape_.kl, name_ + ": bad left lane");
  return shape_.kr + lane;
}
int SwitchBox::output_consumer(int channel) const {
  VAPRES_REQUIRE(channel >= 0 && channel < shape_.ki,
                 name_ + ": bad consumer channel");
  return shape_.kr + shape_.kl + channel;
}

void SwitchBox::connect_input(int port, const Flit* source) {
  check_input(port);
  sources_[static_cast<std::size_t>(port)] = source;
  settled_ = false;
  wake();
}

const Flit* SwitchBox::output_signal(int port) const {
  check_output(port);
  return &outputs_[static_cast<std::size_t>(port)];
}

void SwitchBox::set_output_reader(int port, sim::Clocked* reader) {
  check_output(port);
  readers_[static_cast<std::size_t>(port)] = reader;
}

void SwitchBox::select(int output_port, int input_port) {
  check_output(output_port);
  if (input_port >= 0) check_input(input_port);
  selects_[static_cast<std::size_t>(output_port)] = input_port;
  settled_ = false;
  wake();
}

int SwitchBox::selected(int output_port) const {
  check_output(output_port);
  return selects_[static_cast<std::size_t>(output_port)];
}

bool SwitchBox::output_stuck(int port) const {
  check_output(port);
  return stuck_[static_cast<std::size_t>(port)];
}

void SwitchBox::repair_output(int port) {
  check_output(port);
  if (stuck_[static_cast<std::size_t>(port)]) {
    stuck_[static_cast<std::size_t>(port)] = false;
    --stuck_count_;
  }
  settled_ = false;
  wake();
}

bool SwitchBox::quiescent() const {
  if (sim::FaultInjector::instance().enabled()) return false;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const Flit in = sources_[i] != nullptr ? *sources_[i] : kIdleFlit;
    if (!(in == regs_[i])) return false;
  }
  for (std::size_t p = 0; p < outputs_.size(); ++p) {
    if (stuck_[p]) continue;  // holds its last flit: stable by definition
    const int sel = selects_[p];
    const Flit expect =
        sel >= 0 ? regs_[static_cast<std::size_t>(sel)] : kIdleFlit;
    if (!(outputs_[p] == expect)) return false;
  }
  return true;
}

void SwitchBox::eval() {
  // Settled and no source driven since the last eval: every register
  // would latch what it already holds. Sources change only through
  // sim::drive, which wakes this box (see connect_input).
  if (!take_woken() && settled_) return;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    regs_next_[i] = sources_[i] != nullptr ? *sources_[i] : kIdleFlit;
    if (!(regs_next_[i] == regs_[i])) settled_ = false;
  }
}

void SwitchBox::commit() {
  constexpr auto kSite = sim::FaultSite::kSwitchBoxStuckPort;
  auto& faults = sim::FaultInjector::instance();
  bool draw = faults.enabled();
  if (draw && !faults.live(kSite)) {
    // No output can go stuck on this commit: count every non-stuck
    // output's opportunity at once instead of asking per port.
    faults.count_dead(kSite, static_cast<std::uint64_t>(
                                 shape_.num_outputs() - stuck_count_));
    draw = false;
  }
  // Nothing latched changed and every output already shows its selection:
  // the copy and the mux pass below would write what is already there.
  if (settled_ && !draw) return;
  regs_ = regs_next_;
  // Output muxes are combinational over the (just latched) input
  // registers; materialize them so downstream eval() reads this cycle's
  // values next cycle — one register of latency per box, as in the RTL.
  for (std::size_t p = 0; p < outputs_.size(); ++p) {
    if (draw && !stuck_[p] && faults.should_fire(kSite)) {
      stuck_[p] = true;
      ++stuck_count_;
      ++stuck_events_;
    }
    if (stuck_[p]) continue;  // output holds its last flit until repaired
    const int sel = selects_[p];
    sim::drive(outputs_[p],
               sel >= 0 ? regs_[static_cast<std::size_t>(sel)] : kIdleFlit,
               readers_[p]);
  }
  settled_ = true;
}

}  // namespace vapres::comm
