// The traffic generator: merges all actors' emissions into one globally
// time-ordered record stream, exactly as concurrent clients interleave in a
// shared access log.
//
// Implementation: an event min-heap over (next-step time, source). Sources
// are either live actors or arrival processes; an arrival process fires at
// Poisson(ish) instants and spawns a fresh actor (how human sessions come
// and go without pre-materializing hundreds of thousands of objects).
//
// The generator is a pull-style stream (`next()`), so multi-million-record
// scenarios run in bounded memory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "httplog/record.hpp"
#include "traffic/actor.hpp"
#include "util/interner.hpp"

namespace divscrape::traffic {

/// A source of new actors over time.
struct ArrivalProcess {
  /// Returns the next arrival instant strictly after `now`, or nullopt when
  /// the process is exhausted.
  std::function<std::optional<httplog::Timestamp>(httplog::Timestamp now)>
      next_arrival;
  /// Creates the actor arriving at `at`.
  std::function<std::unique_ptr<Actor>(httplog::Timestamp at)> make_actor;
  /// Vhost tag stamped on every record of every actor this process spawns.
  std::uint32_t vhost = 0;
};

/// Pull-based merged traffic stream.
class TrafficGenerator {
 public:
  /// Records with time >= `end_time` are suppressed and their actors
  /// retired; the stream ends when no source has pending work.
  explicit TrafficGenerator(httplog::Timestamp end_time);

  /// Registers a live actor whose first step happens at `start`. Records it
  /// emits are stamped with `vhost`.
  void add_actor(std::unique_ptr<Actor> actor, httplog::Timestamp start,
                 std::uint32_t vhost = 0);

  /// Registers an arrival process; its first arrival is computed from
  /// `from`.
  void add_arrivals(ArrivalProcess process, httplog::Timestamp from);

  /// Callback that (re)constructs a deferred actor from its cookie. Must be
  /// set before the first lazy event fires. The vhost tag of a lazy actor's
  /// records comes back alongside the actor.
  struct Materialized {
    std::unique_ptr<Actor> actor;
    std::uint32_t vhost = 0;
  };
  using Materializer = std::function<Materialized(std::uint64_t cookie)>;
  void set_materializer(Materializer fn) { materializer_ = std::move(fn); }

  /// Registers a *deferred* actor: only (cookie, start) are stored now; the
  /// actor object is built by the materializer when its start event fires
  /// and retired (slot recycled) as soon as it has no further event. Pop
  /// order — and therefore the output stream — is byte-identical to
  /// add_actor() with the equivalent actor, because the event heap orders
  /// by time alone and slot identity is never part of any comparison.
  void add_lazy_actor(std::uint64_t cookie, httplog::Timestamp start);

  /// Produces the next record in global time order; false when exhausted.
  /// Every emitted record is stamped with an interned `ua_token` so the
  /// whole detection stack downstream keys its per-client state without
  /// hashing the UA string again. The token is cached per actor and only
  /// re-interned when the actor's ua_epoch() moves (UA rotation), so the
  /// steady-state cost is an integer compare instead of a string probe.
  [[nodiscard]] bool next(httplog::LogRecord& out);

  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  [[nodiscard]] std::size_t live_actors() const noexcept {
    return live_actors_;
  }
  /// Actors ever placed in a slot (arrival spawns + adds + materializations).
  [[nodiscard]] std::uint64_t actors_created() const noexcept {
    return actors_created_;
  }
  /// High-water mark of concurrently-live actors — the number that stays
  /// flat under lazy materialization no matter the population size.
  [[nodiscard]] std::size_t peak_live_actors() const noexcept {
    return peak_live_;
  }

 private:
  /// Flags a lazy event: actor_idx = kLazyBit | index into lazy_cookies_.
  static constexpr std::size_t kLazyBit = ~(SIZE_MAX >> 1);

  struct Event {
    httplog::Timestamp time;
    // Exactly one of the two below is active.
    std::size_t actor_idx = SIZE_MAX;    ///< index into actors_, or lazy
    std::size_t arrival_idx = SIZE_MAX;  ///< index into arrivals_

    // Min-heap by time ONLY: payload indices never participate, so slot
    // reuse and lazy materialization cannot perturb pop order.
    friend bool operator<(const Event& a, const Event& b) noexcept {
      return a.time > b.time;
    }
  };

  void push_event(Event e);
  /// Places an actor in a pooled slot (free-list reuse) and returns it.
  std::size_t place_actor(std::unique_ptr<Actor> actor, std::uint32_t vhost);

  /// Cached interned token of an actor's current UA; epoch mirrors the
  /// actor's ua_epoch() at caching time. token 0 = not cached yet.
  struct UaTokenCache {
    std::uint32_t token = 0;
    std::uint32_t epoch = 0;
  };

  httplog::Timestamp end_time_;
  std::vector<std::unique_ptr<Actor>> actors_;   ///< null after retirement
  std::vector<UaTokenCache> ua_cache_;           ///< parallel to actors_
  std::vector<std::uint32_t> vhost_of_;          ///< parallel to actors_
  std::vector<std::size_t> free_slots_;          ///< retired slot pool
  std::vector<std::uint64_t> lazy_cookies_;      ///< deferred registrations
  Materializer materializer_;
  std::vector<ArrivalProcess> arrivals_;
  std::vector<Event> heap_;
  util::StringInterner ua_tokens_;  ///< mints LogRecord::ua_token stamps
  std::uint64_t emitted_ = 0;
  std::size_t live_actors_ = 0;
  std::uint64_t actors_created_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace divscrape::traffic
