// Two-phase clocked component interface.
//
// The VAPRES communication architecture is a register pipeline (one register
// per switch-box input port, Section III.B). To model register semantics
// without ordering artifacts, every component in a clock domain first
// evaluates its next state from the *current* outputs of its neighbours
// (eval), then all components latch simultaneously (commit). This is the
// standard two-phase simulation of synchronous logic.
//
// Activity contract (see docs/SIMULATOR.md): after each commit the kernel
// may poll quiescent(). A component returning true promises that, until one
// of its inputs changes, every further eval()/commit() pair is a state
// no-op with unchanged outputs — so the kernel is free to stop delivering
// edges to it. Whatever changes such an input (a FIFO push/pop, a PRSocket
// bit, a mux select, a raw-pointer wire written through drive()) must call
// wake() on the affected component. The default (never quiescent) keeps
// unaware components on every edge.
#pragma once

#include <cstddef>
#include <string>

namespace vapres::sim {

class ClockDomain;

class Clocked {
 public:
  virtual ~Clocked();

  /// Phase 1: compute next state from currently visible outputs.
  virtual void eval() = 0;

  /// Phase 2: latch the state computed in eval(). After commit, the
  /// component's outputs reflect the new cycle.
  virtual void commit() = 0;

  /// Activity report, polled after commit. True promises eval()/commit()
  /// stay state no-ops with unchanged outputs until an input changes and
  /// wake() is called. The default keeps the component on every edge.
  virtual bool quiescent() const { return false; }

  /// Re-arms edge delivery for this component. Must be called by anything
  /// that changes an input the component reacts to. Safe before attach.
  /// Also records the call for take_woken(), awake or not.
  void wake() {
    woken_ = true;
    if (!active_) activate();
  }

  /// Whether the kernel currently delivers edges to this component.
  bool awake() const { return active_; }

  /// Human-readable instance name for traces and error messages.
  virtual std::string name() const { return "<clocked>"; }

 protected:
  /// Whether wake() was called since the last take_woken() (true before
  /// the first), and clears the record. A component whose inputs only
  /// change through wake-calling writers (sim::drive, its own mutators)
  /// may skip eval() while this is false and its state is settled.
  bool take_woken() {
    const bool woken = woken_;
    woken_ = false;
    return woken;
  }

 private:
  friend class ClockDomain;

  void activate();

  ClockDomain* domain_ = nullptr;
  std::size_t slot_ = 0;  ///< index in domain_'s slot vector
  bool active_ = true;
  bool woken_ = true;
};

/// Latches `next` into `wire`, a signal another component samples by raw
/// pointer, and wakes `reader` (the wire's one registered sampler) when
/// the value changes. Every write to such a wire goes through here —
/// including writes outside commit() such as resets — so a sleeping
/// reader never misses a change.
template <typename T>
void drive(T& wire, const T& next, Clocked* reader) {
  if (wire == next) return;
  wire = next;
  if (reader != nullptr) reader->wake();
}

}  // namespace vapres::sim
