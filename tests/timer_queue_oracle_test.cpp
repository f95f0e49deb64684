// Seeded differential test of the engine's timer queue. sim::TimerHeap
// keeps runs of events with one time, one origin node and consecutive seqs
// as one heap entry (DESIGN.md section 13); sim::ReadyQueue sits on a Ring.
// The heap and ring of the engine before runs are kept verbatim in
// timer_queue_reference.hpp. A model of Engine's schedule_on, wake,
// dispatch_one and run_for drives both pairs through the same seeded
// program, and after every dispatch the dispatched key and event and both
// queue sizes must be identical.
//
// The program covers what runs must survive: fan-outs from several nodes
// onto one time (runs), runs broken by pushes at other times, wakes that
// take a seq between two equal-time pushes of one node (a gap the heap must
// not merge across), equal-time pushes from lower nodes while a run is
// being dispatched, and run_for deadlines landing on the time of a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "timer_queue_reference.hpp"
#include "util/rng.hpp"

namespace starfish::sim {
namespace {

constexpr NodeId kNodes = 6;
constexpr uint64_t kMaxEvents = 3000;  // per seed: the program grows to this, then drains
constexpr std::array<Duration, 6> kDelays = {0, 1, 2, 3, 5, 8};
constexpr std::array<Duration, 5> kRunFor = {0, 1, 3, 4, 10};

/// One dispatched event: its key and its creation index.
struct Dispatch {
  Time at;
  NodeId node;
  uint64_t seq;
  uint64_t id;
  bool operator==(const Dispatch&) const = default;
};

std::string describe(const std::optional<Dispatch>& d) {
  if (!d) return "none";
  return "(" + std::to_string(d->at) + ", " + std::to_string(d->node) + ", " +
         std::to_string(d->seq) + ") event " + std::to_string(d->id);
}

/// How often the program hit each case, summed over a run.
struct Coverage {
  uint64_t joins = 0;        ///< pushes continuing the previous push's run
  uint64_t gaps = 0;         ///< equal-time pushes of one node with a seq taken in between
  uint64_t lower_in_run = 0;  ///< equal-time pushes from a lower node while a run goes on
};

/// Engine's scheduling and dispatch loop over a pluggable heap and ring,
/// with scripted events in place of callbacks.
template <typename Heap, typename Ready>
class Model {
 public:
  explicit Model(uint64_t seed) : seed_(seed), next_seq_(kNodes, 0) {}
  ~Model() {
    while (!timers_.empty()) pool_.release(timers_.pop().event);
  }

  size_t timers() const { return timers_.size(); }
  size_t ready() const { return ready_.size(); }
  bool idle() const { return timers_.empty() && ready_.empty(); }
  Time now() const { return now_; }
  /// The time of the next event (idle() must be false).
  Time next_time() const {
    if (timers_.empty()) return ready_.front().at;
    if (ready_.empty()) return timers_.top().at;
    return std::min(timers_.top().at, ready_.front().at);
  }
  const Coverage& coverage() const { return coverage_; }

  /// The control node's opening moves: one fan-out per node.
  void boot() {
    for (NodeId n = 0; n < kNodes; ++n) act(next_id_++);
  }

  /// Engine::dispatch_one.
  std::optional<Dispatch> step(Time deadline) {
    bool take_ready;
    if (ready_.empty()) {
      if (timers_.empty()) return std::nullopt;
      take_ready = false;
    } else if (timers_.empty()) {
      take_ready = true;
    } else {
      const ReadyEntry& r = ready_.front();
      const TimerEntry& t = timers_.top();
      take_ready = event_key_before(r.at, r.node, r.seq, t.at, t.node, t.seq);
    }
    if (take_ready) {
      if (ready_.front().at > deadline) return std::nullopt;
      const ReadyEntry e = ready_.pop();
      now_ = e.at;
      current_ = Dispatch{e.at, e.node, e.seq, e.epoch};
      exec_ = static_cast<NodeId>(e.epoch % kNodes);  // the woken fiber's home node
      act(e.epoch);
      exec_ = kControlNode;
      return current_;
    }
    if (timers_.top().at > deadline) return std::nullopt;
    const TimerEntry t = timers_.pop();
    now_ = t.at;
    current_ = Dispatch{t.at, t.node, t.seq, 0};
    exec_ = t.event->exec_node;
    t.event->fn();  // sets current_.id
    exec_ = kControlNode;
    pool_.release(t.event);
    return current_;
  }

  /// The end of a run_for: now() lands on the deadline.
  void settle(Time deadline) { now_ = deadline; }

 private:
  /// Engine::schedule_on from the executing node.
  void schedule(NodeId target, Duration delay) {
    const uint64_t id = next_id_++;
    const uint64_t seq = next_seq_[exec_]++;
    const Time at = now_ + delay;
    if (at == last_at_ && exec_ == last_node_) {
      if (seq == last_seq_ + 1) ++coverage_.joins;
      if (seq > last_seq_ + 1) ++coverage_.gaps;
    }
    if (delay == 0 && exec_ < current_.node && !timers_.empty() && timers_.top().at == now_ &&
        timers_.top().node == current_.node && timers_.top().seq == current_.seq + 1) {
      ++coverage_.lower_in_run;
    }
    last_at_ = at;
    last_node_ = exec_;
    last_seq_ = seq;
    EventNode* n = pool_.acquire();
    n->fn.emplace([this, id] { act(id); });
    n->exec_node = target;
    timers_.push(TimerEntry{at, exec_, seq, n});
  }

  /// Engine::wake: a ready entry at now() from the executing node. The
  /// event id rides in the epoch field (no fiber is involved).
  void wake() {
    ready_.push(ReadyEntry{now_, exec_, next_seq_[exec_]++, nullptr, next_id_++});
  }

  /// What event `id` does when it runs: a function of (seed, id) only, so
  /// both sides run the same program for as long as their histories agree.
  void act(uint64_t id) {
    current_.id = id;
    if (next_id_ >= kMaxEvents) return;
    util::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + id);
    const auto node = [&] { return static_cast<NodeId>(rng.below(kNodes)); };
    const auto delay = [&] { return kDelays[rng.below(kDelays.size())]; };
    // About 1.2 children per event: the program grows slowly to
    // kMaxEvents over many distinct times, then drains.
    const uint64_t pick = rng.below(16);
    if (pick == 0) {
      // A fan-out: sends to many nodes at one time, the shape of a
      // heartbeat tick. Now and then a wake takes a seq in the middle or a
      // push at another time breaks the run.
      const Duration d = delay();
      for (uint64_t i = 2 + rng.below(12); i > 0; --i) {
        schedule(node(), d);
        if (rng.chance(0.1)) wake();
        if (rng.chance(0.1)) schedule(node(), delay());
      }
    } else if (pick <= 2) {
      wake();
      if (rng.chance(0.5)) schedule(node(), 0);
    } else if (pick <= 4) {
      schedule(node(), 0);  // at now(): from a lower node, it cuts into a running run
    } else if (pick <= 12) {
      schedule(node(), delay());
    }
  }

  uint64_t seed_;
  Heap timers_;
  Ready ready_;
  EventPool pool_;
  std::vector<uint64_t> next_seq_;
  Time now_ = 0;
  NodeId exec_ = kControlNode;
  Dispatch current_{0, kControlNode, 0, 0};
  uint64_t next_id_ = 0;
  Time last_at_ = -1;
  NodeId last_node_ = kControlNode;
  uint64_t last_seq_ = 0;
  Coverage coverage_;
};

TEST(TimerQueueOracle, RunsDispatchInTheReferenceOrder) {
  Coverage total;
  uint64_t dispatched = 0;
  uint64_t deadline_hits = 0;  // run_for deadlines on the time of the events just dispatched
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Model<TimerHeap, ReadyQueue> runs(seed);
    Model<reference::TimerHeap, reference::ReadyQueue> ref(seed);
    runs.boot();
    ref.boot();
    util::Rng deadlines(seed);
    while (!ref.idle() || !runs.idle()) {
      // run_for(d): dispatch everything at or before the deadline, which
      // half the time is the next event's own time.
      const Time deadline = deadlines.chance(0.5) && !ref.idle()
                                ? ref.next_time()
                                : ref.now() + kRunFor[deadlines.below(kRunFor.size())];
      bool hit = false;
      for (;;) {
        const auto a = runs.step(deadline);
        const auto b = ref.step(deadline);
        ASSERT_EQ(a, b) << "seed " << seed << " dispatch " << dispatched << ": runs "
                        << describe(a) << ", reference " << describe(b);
        ASSERT_EQ(runs.timers(), ref.timers()) << "seed " << seed << " dispatch " << dispatched;
        ASSERT_EQ(runs.ready(), ref.ready()) << "seed " << seed << " dispatch " << dispatched;
        if (!a) break;
        hit = a->at == deadline;
        ++dispatched;
      }
      if (hit) ++deadline_hits;
      runs.settle(deadline);
      ref.settle(deadline);
    }
    const Coverage& c = ref.coverage();
    total.joins += c.joins;
    total.gaps += c.gaps;
    total.lower_in_run += c.lower_in_run;
  }
  // The program must actually reach every case it is meant to cover.
  EXPECT_GT(dispatched, 100'000u);
  EXPECT_GT(total.joins, 30'000u);
  EXPECT_GT(total.gaps, 3'000u);
  EXPECT_GT(total.lower_in_run, 3'000u);
  EXPECT_GT(deadline_hits, 600u);
  std::printf("%llu dispatches, %llu run joins, %llu gaps, %llu lower-node pushes inside a run, "
              "%llu deadlines on a run's time\n",
              static_cast<unsigned long long>(dispatched),
              static_cast<unsigned long long>(total.joins),
              static_cast<unsigned long long>(total.gaps),
              static_cast<unsigned long long>(total.lower_in_run),
              static_cast<unsigned long long>(deadline_hits));
}

}  // namespace
}  // namespace starfish::sim
