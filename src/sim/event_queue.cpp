#include "sim/event_queue.hpp"

namespace cxlgraph::sim {

std::uint32_t EventQueue::add_lane(std::size_t slot) {
  if (slot >= lane_ids_.size()) {  // grow by whole listener rows
    lane_ids_.resize((slot / kOpcodeLanes + 1) * kOpcodeLanes, kNoLane);
  }
  lane_ids_[slot] = static_cast<std::uint32_t>(lanes_.size());
  lanes_.emplace_back();
  heads_.resize(lanes_.size() + 1);  // room for every lane + overflow
  return lane_ids_[slot];
}

void EventQueue::compact(Lane& lane) {
  lane.events.erase(lane.events.begin(),
                    lane.events.begin() +
                        static_cast<std::ptrdiff_t>(lane.head));
  lane.head = 0;
}

// Like pop_overflow(), moves a hole instead of swapping: one 32-byte copy
// per level rather than three.
void EventQueue::overflow_push(const Event& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);  // placeholder; overwritten below
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
  if (i > 0) return;  // the overflow heap's front is unchanged
  std::size_t slot = 0;
  if (heap_.size() == 1) {
    slot = sources_++;  // the overflow heap joins the head heap
  } else {
    while (heads_[slot].source != kOverflow) ++slot;  // decrease-key
  }
  sift_up(slot, Head{e.time, e.seq, kOverflow});
}

}  // namespace cxlgraph::sim
