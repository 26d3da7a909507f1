#include "comm/module_interface.hpp"

namespace vapres::comm {

ProducerInterface::ProducerInterface(std::string name, int fifo_capacity,
                                     int width_bits)
    : name_(std::move(name)),
      fifo_(name_ + ".fifo", fifo_capacity),
      width_bits_(width_bits) {
  VAPRES_REQUIRE(width_bits_ >= 1 && width_bits_ <= 32,
                 name_ + ": channel width must be 1..32 bits");
  // The module-side writer (wrapper or IOM source) pushes from another
  // context; the push must re-arm the fabric-side drain.
  fifo_.add_wake_target(this);
}

void ProducerInterface::reset() {
  fifo_.reset();
  sim::drive(output_, kIdleFlit, output_reader_);
  next_output_ = kIdleFlit;
  pop_pending_ = false;
  wake();
}

bool ProducerInterface::quiescent() const {
  const bool feedback = feedback_full_ != nullptr && *feedback_full_;
  // A stalled producer (word ready, blocked on feedback-full) must keep
  // ticking so stall_cycles_ counts every blocked edge.
  const bool stalled = read_enable_ && feedback && !fifo_.empty();
  const bool next_idle = !(read_enable_ && !feedback && !fifo_.empty());
  return !output_.valid && next_idle && !stalled;
}

void ProducerInterface::eval() {
  const bool feedback = feedback_full_ != nullptr && *feedback_full_;
  if (read_enable_ && !feedback && !fifo_.empty()) {
    // Bit-extension: w payload bits + negated-empty flag as the valid
    // MSB. A w-bit channel physically carries only the low w bits.
    next_output_ = Flit{fifo_.front() & payload_mask(width_bits_), true};
    pop_pending_ = true;
  } else {
    if (read_enable_ && feedback && !fifo_.empty()) ++stall_cycles_;
    next_output_ = kIdleFlit;
    pop_pending_ = false;
  }
}

void ProducerInterface::commit() {
  if (pop_pending_) {
    fifo_.pop();
    ++words_sent_;
    pop_pending_ = false;
  }
  sim::drive(output_, next_output_, output_reader_);
}

ConsumerInterface::ConsumerInterface(std::string name, int fifo_capacity)
    : name_(std::move(name)), fifo_(name_ + ".fifo", fifo_capacity) {
  // An external drain (module or IOM sink popping words) changes the fill
  // level the feedback-full threshold is computed from.
  fifo_.add_wake_target(this);
}

void ConsumerInterface::configure_backpressure(int hops,
                                               BackpressurePolicy policy) {
  VAPRES_REQUIRE(hops >= 0, "negative hop count");
  // The FIFO must be able to hold the full in-flight window above the
  // assertion threshold, or the feedback signal would stay asserted
  // forever and the channel deadlocks. This is the design rule behind the
  // paper's capacity-vs-hops formula: N must exceed ~2d (see DESIGN.md).
  const bool deep_enough =
      (policy == BackpressurePolicy::kPipelineDepth &&
       fifo_.capacity() > 2 * hops + 2) ||
      (policy == BackpressurePolicy::kHalfCapacity &&
       fifo_.capacity() / 2 >= 2 * hops + 2) ||
      policy == BackpressurePolicy::kLiteralPaper;
  VAPRES_REQUIRE(deep_enough,
                 name_ + ": consumer FIFO depth " +
                     std::to_string(fifo_.capacity()) +
                     " too shallow for a " + std::to_string(hops) +
                     "-hop channel under this backpressure policy");
  hops_ = hops;
  policy_ = policy;
  wake();
}

void ConsumerInterface::reset() {
  fifo_.reset();
  sim::drive(full_feedback_, false, feedback_reader_);
  next_full_feedback_ = false;
  pending_ = kIdleFlit;
  wake();
}

bool ConsumerInterface::quiescent() const {
  const bool input_idle = input_ == nullptr || !input_->valid;
  return input_idle && full_feedback_ == threshold_reached();
}

bool ConsumerInterface::threshold_reached() const {
  switch (policy_) {
    case BackpressurePolicy::kPipelineDepth:
      // Forward pipeline (producer output register + one register per
      // switch box) plus backward feedback latency: <= 2*hops + 2 words
      // can still arrive after the producer sees the assertion.
      return fifo_.remaining() <= 2 * hops_ + 2;
    case BackpressurePolicy::kHalfCapacity:
      // Hop-oblivious conservative rule: safe whenever the pipeline fits
      // in half the FIFO, at the cost of halving usable buffering.
      return fifo_.remaining() <= fifo_.capacity() / 2;
    case BackpressurePolicy::kLiteralPaper:
      return fifo_.remaining() <= 2 * (fifo_.capacity() - hops_);
  }
  return true;  // unreachable
}

void ConsumerInterface::eval() {
  pending_ = input_ != nullptr ? *input_ : kIdleFlit;
  next_full_feedback_ = threshold_reached();
}

void ConsumerInterface::commit() {
  if (pending_.valid && write_enable_) {
    if (fifo_.full()) {
      ++words_discarded_;
    } else {
      fifo_.push(pending_.data);
      ++words_received_;
    }
  }
  pending_ = kIdleFlit;
  sim::drive(full_feedback_, next_full_feedback_, feedback_reader_);
}

}  // namespace vapres::comm
