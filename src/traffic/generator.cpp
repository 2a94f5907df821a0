#include "traffic/generator.hpp"

#include <algorithm>

namespace divscrape::traffic {

TrafficGenerator::TrafficGenerator(httplog::Timestamp end_time)
    : end_time_(end_time) {}

void TrafficGenerator::push_event(Event e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end());
}

std::size_t TrafficGenerator::place_actor(std::unique_ptr<Actor> actor,
                                          std::uint32_t vhost) {
  ++actors_created_;
  ++live_actors_;
  peak_live_ = std::max(peak_live_, live_actors_);
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    actors_[slot] = std::move(actor);
    ua_cache_[slot] = UaTokenCache{};  // stale token must not leak across
    vhost_of_[slot] = vhost;
    return slot;
  }
  actors_.push_back(std::move(actor));
  ua_cache_.emplace_back();
  vhost_of_.push_back(vhost);
  return actors_.size() - 1;
}

void TrafficGenerator::add_actor(std::unique_ptr<Actor> actor,
                                 httplog::Timestamp start,
                                 std::uint32_t vhost) {
  if (start >= end_time_) return;
  push_event({start, place_actor(std::move(actor), vhost), SIZE_MAX});
}

void TrafficGenerator::add_lazy_actor(std::uint64_t cookie,
                                      httplog::Timestamp start) {
  if (start >= end_time_) return;
  lazy_cookies_.push_back(cookie);
  push_event({start, kLazyBit | (lazy_cookies_.size() - 1), SIZE_MAX});
}

void TrafficGenerator::add_arrivals(ArrivalProcess process,
                                    httplog::Timestamp from) {
  arrivals_.push_back(std::move(process));
  const auto first = arrivals_.back().next_arrival(from);
  if (first && *first < end_time_) {
    push_event({*first, SIZE_MAX, arrivals_.size() - 1});
  }
}

bool TrafficGenerator::next(httplog::LogRecord& out) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    Event e = heap_.back();
    heap_.pop_back();

    if (e.arrival_idx != SIZE_MAX) {
      auto& process = arrivals_[e.arrival_idx];
      auto actor = process.make_actor(e.time);
      if (actor) add_actor(std::move(actor), e.time, process.vhost);
      const auto next = process.next_arrival(e.time);
      if (next && *next < end_time_) {
        push_event({*next, SIZE_MAX, e.arrival_idx});
      }
      continue;
    }

    if (e.actor_idx & kLazyBit) {
      // Deferred actor's first event: build it now, into a pooled slot,
      // and step it this very pop — exactly when the eager path would have.
      auto made = materializer_(lazy_cookies_[e.actor_idx & ~kLazyBit]);
      e.actor_idx = place_actor(std::move(made.actor), made.vhost);
    }

    auto& actor = actors_[e.actor_idx];
    if (!actor) continue;  // already retired (defensive)
    // The epoch must be read *before* step(): a bot that rotates identity
    // at session end does so inside step(), after filling `out` with the
    // pre-rotation UA — the post-step epoch would pin the old token to the
    // new UA.
    const std::uint32_t epoch = actor->ua_epoch();
    const StepResult result = actor->step(e.time, out);
    const bool emit = result.emitted && e.time < end_time_;
    if (result.next && *result.next < end_time_) {
      push_event({*result.next, e.actor_idx, SIZE_MAX});
    } else {
      // Lifetime over: free the state now and recycle the slot — with lazy
      // registration this is what keeps resident actors bounded by the
      // *concurrently-live* population.
      actor.reset();
      free_slots_.push_back(e.actor_idx);
      --live_actors_;
    }
    if (emit) {
      // Identical token assignment to per-record interning: an actor's
      // first record (and first record after a UA rotation) still probes —
      // exactly the calls that could mint — while the cached fast path
      // returns what intern() would have returned anyway.
      auto& cache = ua_cache_[e.actor_idx];
      if (cache.token == 0 || cache.epoch != epoch) {
        cache.token = ua_tokens_.intern(out.user_agent);
        cache.epoch = epoch;
      }
      out.ua_token = cache.token;
      out.vhost = vhost_of_[e.actor_idx];
      ++emitted_;
      return true;
    }
  }
  return false;
}

}  // namespace divscrape::traffic
