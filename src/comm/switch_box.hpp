// Switch box (paper Section III.B, Figure 3).
//
// Each PRR/IOM pairs with one switch box in a linear array. Internally a
// switch box is "a set of multiplexers and one register connected to each
// switch box input port": every input port latches its source each
// static-region cycle, and every output port combinationally selects one
// registered input via a multiplexer whose select lines are the MUX_sel
// bits of the paired PRSocket's DCR. Data therefore advances one switch
// box per cycle — the pipelining that lets the fabric close timing at
// 100 MHz where a long shared bus reached only 50 MHz (Section II).
//
// Port layout for a box with parameters (kr, kl, ki, ko):
//   inputs : [0, kr)            rightward lanes arriving from the left
//            [kr, kr+kl)        leftward  lanes arriving from the right
//            [kr+kl, kr+kl+ko)  producer channels of the paired module
//   outputs: [0, kr)            rightward lanes departing to the right
//            [kr, kr+kl)        leftward  lanes departing to the left
//            [kr+kl, kr+kl+ki)  consumer channels of the paired module
#pragma once

#include <string>
#include <vector>

#include "comm/flit.hpp"
#include "sim/component.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::comm {

/// Lane-count parameters of one switch box.
struct SwitchBoxShape {
  int kr = 2;  ///< rightward-flowing inter-box lanes
  int kl = 2;  ///< leftward-flowing inter-box lanes
  int ki = 1;  ///< consumer channels into the paired module
  int ko = 1;  ///< producer channels out of the paired module

  int num_inputs() const { return kr + kl + ko; }
  int num_outputs() const { return kr + kl + ki; }
};

class SwitchBox final : public sim::Clocked {
 public:
  SwitchBox(std::string name, SwitchBoxShape shape);
  ~SwitchBox() override;
  SwitchBox(const SwitchBox&) = delete;
  SwitchBox& operator=(const SwitchBox&) = delete;

  std::string name() const override { return name_; }
  const SwitchBoxShape& shape() const { return shape_; }

  // -- Port index helpers ---------------------------------------------
  int input_right_lane(int lane) const;
  int input_left_lane(int lane) const;
  int input_producer(int channel) const;
  int output_right_lane(int lane) const;
  int output_left_lane(int lane) const;
  int output_consumer(int channel) const;

  // -- Wiring (done once by the fabric) --------------------------------
  /// Connects input port `port` to read from `source` each cycle. A null
  /// source reads as idle (array-boundary lanes). The source's writer
  /// must register this box as its reader, or the box may sleep through
  /// a change.
  void connect_input(int port, const Flit* source);

  /// Signal slot readers attach to (stable for the box's lifetime).
  const Flit* output_signal(int port) const;
  /// Registers the one component that samples output `port`; it is woken
  /// whenever the output's flit changes. Null unregisters.
  void set_output_reader(int port, sim::Clocked* reader);

  // -- Runtime configuration (PRSocket MUX_sel bits) --------------------
  /// Routes output `port` from registered input `input_port`; -1 parks the
  /// output (drives idle flits).
  void select(int output_port, int input_port);
  int selected(int output_port) const;

  // -- Fault state (kSwitchBoxStuckPort site) ---------------------------
  // With injection enabled, each commit is an opportunity per non-stuck
  // output for the mux to go stuck: the output register latches its
  // current flit and ignores the select until repaired (configuration-
  // memory upset in the MUX_sel bits). Repair is a frame rewrite — the
  // scrubber's job. The box is the injector's one per-commit site: it is
  // registered for its lifetime and never sleeps while injection is on.
  bool output_stuck(int port) const;
  void repair_output(int port);
  int stuck_output_count() const { return stuck_count_; }
  /// Total stuck events injected over the box's lifetime.
  int stuck_events() const { return stuck_events_; }

  /// Latches every source into the next-register set. A settled box
  /// that no source's writer has woken since its last eval skips this:
  /// the registers would latch what they already hold. That is the box an
  /// enabled injector keeps awake with nothing to carry.
  void eval() override;
  /// A settled box whose eval() latched nothing new skips the register
  /// copy and the mux pass: its outputs already equal their selections.
  /// It still counts its stuck-port opportunities, and runs every port
  /// while the site may fire.
  void commit() override;
  /// Input registers already equal their sources and every (non-stuck)
  /// output already equals its mux selection: further edges are no-ops
  /// until a source changes — and every source's writer wakes this box
  /// when it does (the fabric registers the box as each source's reader).
  /// Never while injection is enabled: every commit is then an
  /// opportunity the injector must count.
  bool quiescent() const override;

 private:
  friend class ::vapres::snap::SystemSnapshot;

  void check_input(int port) const;
  void check_output(int port) const;

  std::string name_;
  SwitchBoxShape shape_;
  std::vector<const Flit*> sources_;
  std::vector<Flit> regs_;       ///< registered input ports (current)
  std::vector<Flit> regs_next_;  ///< registered input ports (next)
  std::vector<int> selects_;     ///< per-output mux select, -1 = parked
  std::vector<Flit> outputs_;    ///< materialized output values
  std::vector<sim::Clocked*> readers_;  ///< per-output sampler to wake
  std::vector<bool> stuck_;      ///< per-output stuck-fault latch
  int stuck_count_ = 0;          ///< outputs set in stuck_
  int stuck_events_ = 0;
  /// regs_next_ equals regs_ and every non-stuck output equals its mux
  /// selection, so a commit would change nothing. A full commit sets it;
  /// eval() clears it when a register latches a new flit, and so does
  /// every mutator outside commit (select, repair_output, connect_input)
  /// and a snapshot restore.
  bool settled_ = true;
};

}  // namespace vapres::comm
