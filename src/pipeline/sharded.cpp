#include "pipeline/sharded.hpp"

#include <algorithm>
#include <stdexcept>
#include <system_error>

namespace divscrape::pipeline {

namespace {
/// Ring capacity (in batches) when the caller disables max_backlog: still
/// bounded — rings are bounded by construction — just generously so.
constexpr std::size_t kDefaultRingBatches = 1024;

constexpr std::uint32_t kShardedMagic = 0x53485244u;  // "SHRD"
/// v2: shard_of() routes by the high half of the /24 hash (v1 used the
/// low bits). The clients in a v1 blob's shards are not the ones v2 routes
/// there, so a v1 blob must not restore.
constexpr std::uint32_t kShardedVersion = 2;
}  // namespace

ShardedPipeline::ShardedPipeline(PoolFactory factory, std::size_t shards,
                                 std::size_t batch_size,
                                 std::size_t max_backlog,
                                 std::size_t dispatchers)
    : batch_size_(batch_size == 0 ? 1 : batch_size) {
  if (shards == 0)
    throw std::invalid_argument("ShardedPipeline: shards must be >= 1");
  if (!factory)
    throw std::invalid_argument("ShardedPipeline: null factory");
  if (dispatchers != 1)  // the compatibility slot (see sharded.hpp)
    throw std::invalid_argument("ShardedPipeline: dispatchers must be 1");
  const std::size_t ring_batches =
      max_backlog == 0
          ? kDefaultRingBatches
          : std::max<std::size_t>(1, max_backlog / batch_size_);

  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>(ring_batches);
    shard->pool = factory();
    shard->joiner = std::make_unique<core::AlertJoiner>(shard->pool);
    shards_.push_back(std::move(shard));
  }
  workers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

// Abort path (no finish()): the workers drain what the rings hold and
// exit; nothing reads their results.
ShardedPipeline::~ShardedPipeline() { stop_workers(); }

void ShardedPipeline::stop_workers() {
  for (auto& shard : shards_) shard->ring.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::size_t ShardedPipeline::shard_of(const httplog::LogRecord& r) const {
  // Route by /24 so every record sharing detector state lands together.
  // The /24 key has eight trailing zero bits and the multiplicative hash
  // keeps them, so only its high half is mixed (see sharded.hpp).
  const std::uint64_t key = httplog::Ipv4Hash{}(r.ip.prefix(24));
  return static_cast<std::size_t>((key >> 32) % shards_.size());
}

ShardedPipeline::Slot* ShardedPipeline::acquire_slot() {
  std::lock_guard lock(slots_mutex_);
  if (free_slots_.empty()) {
    slots_.push_back(std::make_unique<Slot>());
    return slots_.back().get();
  }
  Slot* slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void ShardedPipeline::release_slot(Slot* slot) {
  pool_.recycle(std::move(slot->batch));
  std::lock_guard lock(slots_mutex_);
  free_slots_.push_back(slot);
}

void ShardedPipeline::worker_loop(std::size_t s) {
  Shard& shard = *shards_[s];
  const bool every_record = shards_.size() == 1;
  Slot* slot = nullptr;
  while (shard.ring.pop(slot)) {
    const std::uint64_t scanned = slot->batch.size();
    std::uint64_t evaluated = 0;
    for (const auto& record : slot->batch) {
      if (!every_record && shard_of(record) != s) continue;
      (void)shard.joiner->process(record);
      ++evaluated;
    }
    // Recycle before publishing progress, so a batch is back in the pool
    // by the time drain() returns.
    if (slot->readers.fetch_sub(1, std::memory_order_acq_rel) == 1)
      release_slot(slot);
    shard.processed.fetch_add(evaluated, std::memory_order_release);
    shard.scanned.fetch_add(scanned, std::memory_order_release);
    // Empty critical section pairs the notify with the waiter's predicate
    // check (drain() rechecks `scanned` under idle_mutex), so the wakeup
    // cannot be lost.
    { std::lock_guard lock(shard.idle_mutex); }
    shard.idle.notify_all();
  }
}

void ShardedPipeline::process_batch(RecordBatch&& batch) {
  if (finished_)
    throw std::logic_error("ShardedPipeline: process_batch() after finish()");
  const std::uint64_t n = batch.size();
  dispatched_ += n;
  Slot* const slot = acquire_slot();
  slot->batch = std::move(batch);
  slot->readers.store(shards_.size(), std::memory_order_relaxed);
  for (auto& shard : shards_) {
    shard->enqueued += n;
    const std::uint64_t backlog =
        shard->enqueued - shard->scanned.load(std::memory_order_acquire);
    shard->peak_backlog = std::max(shard->peak_backlog, backlog);
    // Blocks when full: backpressure. Every ring gets the same slot.
    shard->ring.push(static_cast<Slot*>(slot));
  }
}

void ShardedPipeline::drain() {
  if (finished_)
    throw std::logic_error("ShardedPipeline: drain() after finish()");
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->idle_mutex);
    shard->idle.wait(lock, [&] {
      return shard->scanned.load(std::memory_order_acquire) >=
             shard->enqueued;
    });
  }
}

std::vector<std::uint64_t> ShardedPipeline::shard_processed() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_)
    out.push_back(shard->processed.load(std::memory_order_acquire));
  return out;
}

std::uint64_t ShardedPipeline::peak_shard_backlog() const noexcept {
  std::uint64_t peak = 0;
  for (const auto& shard : shards_) peak = std::max(peak, shard->peak_backlog);
  return peak;
}

core::JointResults ShardedPipeline::finish() {
  if (finished_)
    throw std::logic_error("ShardedPipeline: finish() called twice");
  finished_ = true;
  stop_workers();

  core::JointResults merged = shards_.front()->joiner->results();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    merged.merge(shards_[s]->joiner->results());
  }
  return merged;
}

bool ShardedPipeline::save_state(util::StateWriter& w) {
  // The drain barrier leaves every worker blocked on an empty ring, and
  // the idle_mutex handshakes order the workers' joiner writes before our
  // reads. Each shard then cuts its own section at the barrier (the
  // barrier snapshot of Carbone et al.): the joiners share nothing, so
  // shard 0 serializes on the caller and the others on helper threads,
  // joined before any blob is read. Thread start orders our reads after
  // the drain; the blobs are concatenated in shard order, so the bytes do
  // not depend on the concurrency.
  drain();
  std::vector<util::StateWriter> blobs(shards_.size());
  std::vector<char> saved(shards_.size(), 0);  // not vector<bool>: racy bits
  const auto save_shard = [&](std::size_t s) {
    saved[s] = shards_[s]->joiner->save_state(blobs[s]) ? 1 : 0;
  };
  std::vector<std::thread> helpers;
  helpers.reserve(shards_.size() - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    try {
      helpers.emplace_back(save_shard, s);
    } catch (const std::system_error&) {
      save_shard(s);  // no thread to spare: serialize it here
    }
  }
  save_shard(0);
  for (std::thread& helper : helpers) helper.join();
  for (const char ok : saved) {
    if (ok == 0) return false;
  }
  util::put_tag(w, kShardedMagic, kShardedVersion);
  w.u64(shards_.size());
  w.u64(dispatched_);
  for (const util::StateWriter& blob : blobs) w.str(blob.buffer());
  return true;
}

bool ShardedPipeline::load_state(util::StateReader& r) {
  drain();
  const auto fail = [&] {
    r.fail();
    for (auto& shard : shards_) shard->joiner->reset();
    dispatched_ = 0;
    return false;
  };
  if (!util::check_tag(r, kShardedMagic, kShardedVersion)) return fail();
  const std::uint64_t count = r.u64();
  if (!r.ok() || count != shards_.size()) return fail();
  dispatched_ = r.u64();
  for (auto& shard : shards_) {
    util::StateReader sub(r.str());
    if (!r.ok() || !shard->joiner->load_state(sub) || !sub.at_end())
      return fail();
  }
  return true;
}

}  // namespace divscrape::pipeline
