#include "comm/switch_fabric.hpp"

#include <cstdlib>

#include "sim/check.hpp"

namespace vapres::comm {

int RouteSpec::segments() const {
  return std::abs(consumer_box - producer_box);
}

SwitchFabric::FeedbackPipeline::FeedbackPipeline(const bool* source, int depth,
                                                 sim::Clocked* reader)
    : source_(source), reader_(reader) {
  VAPRES_REQUIRE(source != nullptr, "feedback pipeline needs a source");
  VAPRES_REQUIRE(depth >= 1, "feedback pipeline depth must be >= 1");
  stages_.assign(static_cast<std::size_t>(depth), false);
}

void SwitchFabric::FeedbackPipeline::eval() {
  // Shift one stage per static-region cycle; commit publishes.
}

void SwitchFabric::FeedbackPipeline::commit() {
  sim::drive(output_, static_cast<bool>(stages_.back()), reader_);
  for (std::size_t i = stages_.size() - 1; i > 0; --i) {
    stages_[i] = stages_[i - 1];
  }
  stages_[0] = *source_;
}

bool SwitchFabric::FeedbackPipeline::quiescent() const {
  const bool level = *source_;
  if (output_ != level) return false;
  for (bool s : stages_) {
    if (s != level) return false;
  }
  return true;
}

SwitchFabric::SwitchFabric(sim::ClockDomain& static_domain, int num_boxes,
                           SwitchBoxShape shape, std::string name)
    : domain_(static_domain), name_(std::move(name)), shape_(shape) {
  VAPRES_REQUIRE(num_boxes >= 1, "fabric needs at least one switch box");
  boxes_.reserve(static_cast<std::size_t>(num_boxes));
  for (int i = 0; i < num_boxes; ++i) {
    boxes_.push_back(std::make_unique<SwitchBox>(
        name_ + ".sw" + std::to_string(i), shape_));
    domain_.attach(boxes_.back().get());
  }
  producers_.assign(static_cast<std::size_t>(num_boxes),
                    std::vector<ProducerInterface*>(
                        static_cast<std::size_t>(shape_.ko), nullptr));
  consumers_.assign(static_cast<std::size_t>(num_boxes),
                    std::vector<ConsumerInterface*>(
                        static_cast<std::size_t>(shape_.ki), nullptr));

  // Wire inter-box lanes: rightward lanes flow i -> i+1, leftward i+1 -> i.
  for (int i = 0; i + 1 < num_boxes; ++i) {
    SwitchBox& left = *boxes_[static_cast<std::size_t>(i)];
    SwitchBox& right = *boxes_[static_cast<std::size_t>(i + 1)];
    for (int lane = 0; lane < shape_.kr; ++lane) {
      const int out = left.output_right_lane(lane);
      right.connect_input(right.input_right_lane(lane),
                          left.output_signal(out));
      left.set_output_reader(out, &right);
    }
    for (int lane = 0; lane < shape_.kl; ++lane) {
      const int out = right.output_left_lane(lane);
      left.connect_input(left.input_left_lane(lane),
                         right.output_signal(out));
      right.set_output_reader(out, &left);
    }
  }
}

SwitchFabric::~SwitchFabric() {
  for (auto& [id, route] : routes_) {
    if (route.feedback) domain_.detach(route.feedback.get());
  }
  for (auto& box : boxes_) domain_.detach(box.get());
}

SwitchBox& SwitchFabric::box(int index) {
  VAPRES_REQUIRE(index >= 0 && index < num_boxes(),
                 name_ + ": box index out of range");
  return *boxes_[static_cast<std::size_t>(index)];
}

const SwitchBox& SwitchFabric::box(int index) const {
  VAPRES_REQUIRE(index >= 0 && index < num_boxes(),
                 name_ + ": box index out of range");
  return *boxes_[static_cast<std::size_t>(index)];
}

void SwitchFabric::attach_producer(int box_index, int channel,
                                   ProducerInterface* prod) {
  VAPRES_REQUIRE(prod != nullptr, "cannot attach null producer");
  SwitchBox& b = box(box_index);
  auto& slot =
      producers_[static_cast<std::size_t>(box_index)]
                [static_cast<std::size_t>(b.input_producer(channel) -
                                          shape_.kr - shape_.kl)];
  VAPRES_REQUIRE(slot == nullptr, "producer channel already attached");
  slot = prod;
  b.connect_input(b.input_producer(channel), prod->output_signal());
  prod->set_output_reader(&b);
}

void SwitchFabric::attach_consumer(int box_index, int channel,
                                   ConsumerInterface* cons) {
  VAPRES_REQUIRE(cons != nullptr, "cannot attach null consumer");
  SwitchBox& b = box(box_index);
  auto& slot =
      consumers_[static_cast<std::size_t>(box_index)]
                [static_cast<std::size_t>(channel)];
  VAPRES_REQUIRE(slot == nullptr, "consumer channel already attached");
  slot = cons;
  cons->set_input_signal(b.output_signal(b.output_consumer(channel)));
  b.set_output_reader(b.output_consumer(channel), cons);
}

ProducerInterface* SwitchFabric::producer_at(int box_index,
                                             int channel) const {
  VAPRES_REQUIRE(box_index >= 0 && box_index < num_boxes(),
                 "box index out of range");
  VAPRES_REQUIRE(channel >= 0 && channel < shape_.ko,
                 "producer channel out of range");
  return producers_[static_cast<std::size_t>(box_index)]
                   [static_cast<std::size_t>(channel)];
}

ConsumerInterface* SwitchFabric::consumer_at(int box_index,
                                             int channel) const {
  VAPRES_REQUIRE(box_index >= 0 && box_index < num_boxes(),
                 "box index out of range");
  VAPRES_REQUIRE(channel >= 0 && channel < shape_.ki,
                 "consumer channel out of range");
  return consumers_[static_cast<std::size_t>(box_index)]
                   [static_cast<std::size_t>(channel)];
}

void SwitchFabric::validate_spec(const RouteSpec& spec) const {
  VAPRES_REQUIRE(spec.producer_box >= 0 && spec.producer_box < num_boxes(),
                 "route producer box out of range");
  VAPRES_REQUIRE(spec.consumer_box >= 0 && spec.consumer_box < num_boxes(),
                 "route consumer box out of range");
  VAPRES_REQUIRE(static_cast<int>(spec.lanes.size()) == spec.segments(),
                 "route must name one lane per inter-box segment");
  const int lane_count = spec.rightward() ? shape_.kr : shape_.kl;
  for (int lane : spec.lanes) {
    VAPRES_REQUIRE(lane >= 0 && lane < lane_count,
                   "route lane index out of range");
  }
  VAPRES_REQUIRE(producer_at(spec.producer_box, spec.producer_channel) !=
                     nullptr,
                 "no producer interface attached at route source");
  VAPRES_REQUIRE(consumer_at(spec.consumer_box, spec.consumer_channel) !=
                     nullptr,
                 "no consumer interface attached at route sink");
}

void SwitchFabric::claim_output(int box_index, int port) {
  const auto key = std::make_pair(box_index, port);
  VAPRES_REQUIRE(output_owner_.count(key) == 0,
                 name_ + ": " + box(box_index).name() +
                     " already carries an active route");
  // Ownership id is recorded by the caller after all claims succeed; a
  // placeholder marks the claim so later claims in the same call conflict.
  output_owner_[key] = 0;
}

RouteId SwitchFabric::establish(const RouteSpec& spec,
                                BackpressurePolicy policy) {
  validate_spec(spec);

  // Configure backpressure first: it rejects consumer FIFOs too shallow
  // for the route's in-flight window, and must fail before any physical
  // state is claimed.
  ConsumerInterface* consumer =
      consumer_at(spec.consumer_box, spec.consumer_channel);
  consumer->configure_backpressure(spec.hops(), policy);

  // Compute the (box, output port) list first, then claim atomically.
  std::vector<std::pair<int, int>> outputs;
  const int step = spec.rightward() ? 1 : -1;
  if (spec.segments() == 0) {
    SwitchBox& b = box(spec.producer_box);
    outputs.emplace_back(spec.producer_box,
                         b.output_consumer(spec.consumer_channel));
  } else {
    int box_index = spec.producer_box;
    for (int seg = 0; seg < spec.segments(); ++seg) {
      SwitchBox& b = box(box_index);
      const int out = spec.rightward()
                          ? b.output_right_lane(spec.lanes[
                                static_cast<std::size_t>(seg)])
                          : b.output_left_lane(spec.lanes[
                                static_cast<std::size_t>(seg)]);
      outputs.emplace_back(box_index, out);
      box_index += step;
    }
    SwitchBox& last = box(spec.consumer_box);
    outputs.emplace_back(spec.consumer_box,
                         last.output_consumer(spec.consumer_channel));
  }

  for (const auto& [bi, port] : outputs) {
    // Roll back earlier claims if any claim fails.
    try {
      claim_output(bi, port);
    } catch (...) {
      for (const auto& [ubi, uport] : outputs) {
        if (ubi == bi && uport == port) break;
        output_owner_.erase(std::make_pair(ubi, uport));
      }
      throw;
    }
  }

  // Apply mux selects.
  if (spec.segments() == 0) {
    SwitchBox& b = box(spec.producer_box);
    b.select(b.output_consumer(spec.consumer_channel),
             b.input_producer(spec.producer_channel));
  } else {
    int box_index = spec.producer_box;
    for (int seg = 0; seg < spec.segments(); ++seg) {
      SwitchBox& b = box(box_index);
      const int lane = spec.lanes[static_cast<std::size_t>(seg)];
      const int out = spec.rightward() ? b.output_right_lane(lane)
                                       : b.output_left_lane(lane);
      int in;
      if (seg == 0) {
        in = b.input_producer(spec.producer_channel);
      } else {
        const int prev_lane = spec.lanes[static_cast<std::size_t>(seg - 1)];
        in = spec.rightward() ? b.input_right_lane(prev_lane)
                              : b.input_left_lane(prev_lane);
      }
      b.select(out, in);
      box_index += step;
    }
    SwitchBox& last = box(spec.consumer_box);
    const int last_lane = spec.lanes.back();
    last.select(last.output_consumer(spec.consumer_channel),
                spec.rightward() ? last.input_right_lane(last_lane)
                                 : last.input_left_lane(last_lane));
  }

  ActiveRoute route;
  route.spec = spec;
  route.outputs = outputs;
  route.producer = producer_at(spec.producer_box, spec.producer_channel);
  route.consumer = consumer;
  route.feedback = std::make_unique<FeedbackPipeline>(
      route.consumer->full_feedback_signal(), spec.hops(), route.producer);
  route.consumer->set_feedback_reader(route.feedback.get());
  route.producer->set_feedback_full_source(route.feedback->output_signal());
  domain_.attach(route.feedback.get());

  const RouteId id = next_route_id_++;
  for (const auto& key : outputs) output_owner_[key] = id;
  routes_.emplace(id, std::move(route));
  return id;
}

void SwitchFabric::release(RouteId id) {
  auto it = routes_.find(id);
  VAPRES_REQUIRE(it != routes_.end(), "release of unknown route");
  ActiveRoute& route = it->second;
  for (const auto& [bi, port] : route.outputs) {
    box(bi).select(port, -1);
    output_owner_.erase(std::make_pair(bi, port));
  }
  route.producer->set_feedback_full_source(nullptr);
  route.consumer->set_feedback_reader(nullptr);
  domain_.detach(route.feedback.get());
  routes_.erase(it);
}

}  // namespace vapres::comm
