// Linear switch-box array + streaming-channel mechanics.
//
// The fabric owns the switch boxes of one RSB, wires the inter-box lanes,
// and applies/clears route configurations (the mux selects a PRSocket's
// MUX_sel bits control, plus the backwards-pipelined feedback-full signal
// of Section III.B). *Which* lanes a channel uses is decided above, by
// core::ChannelManager (the model of vapres_establish_channel); the fabric
// enforces physical legality: ports exist, are attached, and are not
// already driven by another active route.
//
// The feedback-full signal is modelled as a per-route backward shift
// register of the same depth as the forward path. In the RTL it is one
// backward register per traversed switch box; a depth-d shift register is
// cycle-for-cycle identical (see DESIGN.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/module_interface.hpp"
#include "comm/switch_box.hpp"
#include "sim/clock.hpp"

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::comm {

/// A fully specified streaming-channel route: endpoints plus the lane to
/// use on every inter-box segment (|producer_box - consumer_box| lanes,
/// rightward lanes if the consumer is to the right, leftward otherwise).
struct RouteSpec {
  int producer_box = 0;
  int producer_channel = 0;
  int consumer_box = 0;
  int consumer_channel = 0;
  std::vector<int> lanes;

  int segments() const;
  bool rightward() const { return consumer_box > producer_box; }
  /// Switch boxes traversed (= registers on the forward path).
  int hops() const { return segments() + 1; }
};

using RouteId = std::uint32_t;

class SwitchFabric {
 public:
  /// Builds `num_boxes` switch boxes of identical `shape`, clocked by
  /// `static_domain`, and wires the inter-box lanes.
  SwitchFabric(sim::ClockDomain& static_domain, int num_boxes,
               SwitchBoxShape shape, std::string name = "fabric");

  SwitchFabric(const SwitchFabric&) = delete;
  SwitchFabric& operator=(const SwitchFabric&) = delete;
  ~SwitchFabric();

  int num_boxes() const { return static_cast<int>(boxes_.size()); }
  const SwitchBoxShape& shape() const { return shape_; }
  SwitchBox& box(int index);
  const SwitchBox& box(int index) const;

  /// Attaches a producer interface to producer channel `channel` of box
  /// `box_index`. The interface must outlive the fabric's use of it.
  void attach_producer(int box_index, int channel, ProducerInterface* prod);
  void attach_consumer(int box_index, int channel, ConsumerInterface* cons);

  ProducerInterface* producer_at(int box_index, int channel) const;
  ConsumerInterface* consumer_at(int box_index, int channel) const;

  /// Applies a route: configures the mux selects along the path, the
  /// consumer's backpressure threshold, and the feedback pipeline.
  /// Throws ModelError on any physical conflict.
  RouteId establish(const RouteSpec& spec,
                    BackpressurePolicy policy = BackpressurePolicy::kPipelineDepth);

  /// Tears down a route, parking its output ports.
  void release(RouteId id);

  std::size_t active_routes() const { return routes_.size(); }

 private:
  // Checkpoint/restore re-establishes routes under their original ids
  // (forcing next_route_id_) and overlays feedback-pipeline stages
  // (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  /// Backward shift register carrying the consumer's full signal to the
  /// producer with one register per traversed switch box.
  class FeedbackPipeline final : public sim::Clocked {
   public:
    /// Shifts `source` towards `reader`, which is woken whenever the
    /// output flips.
    FeedbackPipeline(const bool* source, int depth, sim::Clocked* reader);
    const bool* output_signal() const { return &output_; }
    void eval() override;
    void commit() override;
    /// Every stage (and the output) already equals the source: shifting
    /// is a no-op until the consumer's full register flips.
    bool quiescent() const override;
    std::string name() const override { return "feedback"; }

   private:
    friend class ::vapres::snap::SystemSnapshot;

    const bool* source_;
    sim::Clocked* reader_;
    std::vector<bool> stages_;
    bool output_ = false;
  };

  struct ActiveRoute {
    RouteSpec spec;
    // (box index, output port) pairs this route configured.
    std::vector<std::pair<int, int>> outputs;
    std::unique_ptr<FeedbackPipeline> feedback;
    ProducerInterface* producer = nullptr;
    ConsumerInterface* consumer = nullptr;
  };

  void validate_spec(const RouteSpec& spec) const;
  void claim_output(int box_index, int port);

  sim::ClockDomain& domain_;
  std::string name_;
  SwitchBoxShape shape_;
  // Every wire between fabric components (lane, consumer channel,
  // producer output, feedback-full, pipeline output) is sampled by raw
  // pointer, so each has exactly one registered reader that its writer
  // wakes on change; boxes, interfaces and pipelines sleep one by one.
  std::vector<std::unique_ptr<SwitchBox>> boxes_;
  // attachment tables: [box][channel]
  std::vector<std::vector<ProducerInterface*>> producers_;
  std::vector<std::vector<ConsumerInterface*>> consumers_;
  // output-port occupancy: (box index, output port) -> owning route
  std::map<std::pair<int, int>, RouteId> output_owner_;
  std::map<RouteId, ActiveRoute> routes_;
  RouteId next_route_id_ = 1;
};

}  // namespace vapres::comm
