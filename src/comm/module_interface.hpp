// Producer and consumer module interfaces (paper Figure 2).
//
// Every PRR/IOM pairs with a switch box through FIFO-based module
// interfaces. The *producer* interface holds a FIFO written by the
// hardware module (in the module's local clock domain) and drained onto
// the switch-box fabric (in the static-region domain) when the PRSocket
// FIFO_ren bit is set and the pipelined feedback-full signal is clear.
// The *consumer* interface receives flits from the fabric, writes valid
// words into its FIFO when FIFO_wen is set, and asserts the feedback-full
// signal early enough to absorb every word still in the pipeline.
//
// Backpressure threshold: the paper states the signal asserts when the
// consumer FIFO's remaining space is "2*(N-d)" (N = FIFO capacity, d =
// switch-box hops). That expression is dimensionally inconsistent for
// N >> d (see DESIGN.md); the in-flight bound after assertion is the
// forward + backward pipeline depth, ~2d+2 words. The default policy
// asserts at remaining <= 2d+2 and is property-tested to never drop a
// word; the literal paper policy is also implemented so its behaviour can
// be demonstrated.
#pragma once

#include <cstdint>
#include <string>

#include "comm/fifo.hpp"
#include "comm/flit.hpp"
#include "sim/component.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::comm {

enum class BackpressurePolicy {
  kPipelineDepth,  ///< assert when remaining <= 2*d + 2 (default, safe)
  kHalfCapacity,   ///< assert when remaining <= N/2 (safe, conservative)
  kLiteralPaper,   ///< assert when remaining <= 2*(N - d) (as printed)
};

/// Producer interface: module-side FIFO -> fabric flit output.
/// Clocked in the static-region domain.
class ProducerInterface final : public sim::Clocked {
 public:
  explicit ProducerInterface(std::string name,
                             int fifo_capacity = Fifo::kDefaultDepth,
                             int width_bits = 32);

  std::string name() const override { return name_; }

  /// Module-side access (called from the module's clock domain).
  Fifo& fifo() { return fifo_; }
  const Fifo& fifo() const { return fifo_; }

  /// PRSocket FIFO_ren bit: enables draining the FIFO onto the fabric.
  void set_read_enable(bool enable) {
    read_enable_ = enable;
    wake();
  }
  bool read_enable() const { return read_enable_; }

  /// Wires the pipelined feedback-full signal (owned by the fabric's
  /// feedback pipeline). Null means "never full".
  void set_feedback_full_source(const bool* src) {
    feedback_full_ = src;
    wake();
  }

  /// Fabric-side output register (read by the paired switch box's input
  /// register during its eval).
  const Flit* output_signal() const { return &output_; }
  /// Registers the component sampling output_signal() (the paired box);
  /// it is woken whenever the output flit changes.
  void set_output_reader(sim::Clocked* reader) { output_reader_ = reader; }

  /// PRSocket FIFO_reset bit.
  void reset();

  std::uint64_t words_sent() const { return words_sent_; }
  /// Clock edges on which the interface had a word ready to drain but
  /// was blocked by the feedback-full backpressure signal. A rising
  /// count with a flat words_sent() is the software-visible signature
  /// of a congested channel (exposed over DCR by core::PerfCounters).
  /// Edges skipped while the whole domain is quiescent are not stalls:
  /// a stalled producer with a non-empty FIFO is kept non-quiescent so
  /// the count stays cycle-accurate.
  std::uint64_t stall_cycles() const { return stall_cycles_; }

  void eval() override;
  void commit() override;
  /// Idle output and nothing drainable (empty FIFO, read disabled, or
  /// stalled on feedback-full): further edges are no-ops until the FIFO
  /// or a PRSocket bit wakes the interface.
  bool quiescent() const override;

  /// Payload width of the attached channel (w in the paper's Figure 7).
  int width_bits() const { return width_bits_; }

 private:
  friend class ::vapres::snap::SystemSnapshot;

  std::string name_;
  Fifo fifo_;
  int width_bits_;
  bool read_enable_ = false;
  const bool* feedback_full_ = nullptr;
  Flit output_{};
  Flit next_output_{};
  sim::Clocked* output_reader_ = nullptr;
  bool pop_pending_ = false;
  std::uint64_t words_sent_ = 0;
  std::uint64_t stall_cycles_ = 0;
};

/// Consumer interface: fabric flit input -> module-side FIFO.
/// Clocked in the static-region domain.
class ConsumerInterface final : public sim::Clocked {
 public:
  explicit ConsumerInterface(std::string name, int fifo_capacity = Fifo::kDefaultDepth);

  std::string name() const override { return name_; }

  Fifo& fifo() { return fifo_; }
  const Fifo& fifo() const { return fifo_; }

  /// PRSocket FIFO_wen bit: enables writing received words into the FIFO.
  void set_write_enable(bool enable) {
    write_enable_ = enable;
    wake();
  }
  bool write_enable() const { return write_enable_; }

  /// Wires the fabric-side input (the paired switch box's consumer-channel
  /// output slot). Null reads as idle.
  void set_input_signal(const Flit* src) {
    input_ = src;
    wake();
  }

  /// Configures backpressure for an established channel crossing `hops`
  /// switch boxes.
  void configure_backpressure(int hops, BackpressurePolicy policy);

  /// The registered feedback-full output (entry of the feedback pipeline).
  const bool* full_feedback_signal() const { return &full_feedback_; }
  /// Registers the component sampling full_feedback_signal() (the route's
  /// feedback pipeline); it is woken whenever the signal flips.
  void set_feedback_reader(sim::Clocked* reader) { feedback_reader_ = reader; }

  void reset();

  std::uint64_t words_received() const { return words_received_; }
  /// Words discarded because the FIFO was full when they arrived
  /// (Section III.B: "when a consumer interface FIFO becomes full, all
  /// subsequent data words are discarded").
  std::uint64_t words_discarded() const { return words_discarded_; }

  void eval() override;
  void commit() override;
  /// Idle fabric input and a settled feedback-full register: further edges
  /// are no-ops until a flit arrives or the FIFO's fill level changes.
  bool quiescent() const override;

 private:
  friend class ::vapres::snap::SystemSnapshot;

  bool threshold_reached() const;

  std::string name_;
  Fifo fifo_;
  bool write_enable_ = false;
  const Flit* input_ = nullptr;
  int hops_ = 0;
  BackpressurePolicy policy_ = BackpressurePolicy::kPipelineDepth;
  bool full_feedback_ = false;
  bool next_full_feedback_ = false;
  sim::Clocked* feedback_reader_ = nullptr;
  Flit pending_{};
  std::uint64_t words_received_ = 0;
  std::uint64_t words_discarded_ = 0;
};

}  // namespace vapres::comm
