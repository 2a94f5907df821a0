#include "pipeline/sharded.hpp"

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

  const std::size_t m =
      std::min(dispatchers == 0 ? std::size_t{1} : dispatchers, shards);
  dispatchers_.reserve(m);
  shard_owner_.resize(shards);
  for (std::size_t d = 0; d < m; ++d) {
    auto disp = std::make_unique<Dispatcher>(ring_batches);
    // Contiguous shard-key ranges: dispatcher d owns [d*S/m, (d+1)*S/m).
    disp->first_shard = d * shards / m;
    disp->last_shard = (d + 1) * shards / m;
    for (std::size_t s = disp->first_shard; s < disp->last_shard; ++s)
      shard_owner_[s] = static_cast<std::uint32_t>(d);
    dispatchers_.push_back(std::move(disp));
  }

  workers_.reserve(shards);
  for (auto& shard : shards_) {
    workers_.emplace_back([this, &shard] { worker_loop(*shard); });
  }
  for (auto& disp : dispatchers_) {
    disp->thread = std::thread([this, &disp] { dispatcher_loop(*disp); });
  }
}

ShardedPipeline::~ShardedPipeline() {
  if (!finished_) {
    // Abort path: close the input rings so dispatchers drain, flush, close
    // their shard rings and exit; workers follow. Caller-side pending
    // batches are dropped (nothing committed them).
    for (auto& disp : dispatchers_) disp->ring.close();
    for (auto& disp : dispatchers_) {
      if (disp->thread.joinable()) disp->thread.join();
    }
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }
}

std::size_t ShardedPipeline::shard_of(const httplog::LogRecord& r) const {
  // Route by /24 so every record sharing detector state lands together.
  // The /24 key has eight trailing zero bits and the multiplicative hash
  // keeps them, so only its high half is mixed (see sharded.hpp).
  const std::uint64_t key = httplog::Ipv4Hash{}(r.ip.prefix(24));
  return static_cast<std::size_t>((key >> 32) % shards_.size());
}

void ShardedPipeline::route_to_shard(std::size_t s,
                                     const httplog::LogRecord& record) {
  Shard& shard = *shards_[s];
  // Copy-assign into a warm slot: zero allocations in steady state (the
  // arena contract), and the source batch keeps its storage for recycling.
  shard.pending.append_slot() = record;
  if (shard.pending.size() >= batch_size_) flush_shard_pending(shard);
}

void ShardedPipeline::push_shard_batch(Shard& shard, RecordBatch&& batch) {
  const std::uint64_t n = batch.size();
  const std::uint64_t enq =
      shard.enqueued.fetch_add(n, std::memory_order_relaxed) + n;
  const std::uint64_t done = shard.processed.load(std::memory_order_acquire);
  const std::uint64_t backlog = enq - done;
  if (backlog > shard.peak_backlog.load(std::memory_order_relaxed))
    shard.peak_backlog.store(backlog, std::memory_order_relaxed);
  shard.ring.push(std::move(batch));  // blocks when full: backpressure
}

void ShardedPipeline::flush_shard_pending(Shard& shard) {
  if (shard.pending.empty()) return;
  push_shard_batch(shard, std::move(shard.pending));
  shard.pending = pool_.acquire();
}

void ShardedPipeline::dispatcher_loop(Dispatcher& d) {
  DispatchItem item;
  while (d.ring.pop(item)) {
    if (item.flush_seq != 0) {
      // In-band flush marker: every batch the caller pushed before it has
      // already been re-routed (FIFO), so flushing the per-shard pendings
      // and acking makes "everything up to the marker is in shard rings"
      // true at the ack.
      for (std::size_t s = d.first_shard; s < d.last_shard; ++s)
        flush_shard_pending(*shards_[s]);
      {
        std::lock_guard lock(d.ack_mutex);
        d.flush_acked = item.flush_seq;
      }
      d.ack_cv.notify_all();
      continue;
    }
    if (d.last_shard - d.first_shard == 1) {
      // The caller routes records to the dispatcher that owns their shard,
      // so with exactly one owned shard every record in this batch already
      // belongs to it: forward the batch whole instead of re-copying each
      // record. (Flush first to keep per-shard FIFO order.)
      Shard& shard = *shards_[d.first_shard];
      flush_shard_pending(shard);
      push_shard_batch(shard, std::move(item.batch));
      continue;
    }
    for (const auto& record : item.batch) {
      route_to_shard(shard_of(record), record);
    }
    pool_.recycle(std::move(item.batch));
  }
  // Input ring closed: end-of-stream. Flush what's pending, then close the
  // owned shard rings so workers drain and exit.
  for (std::size_t s = d.first_shard; s < d.last_shard; ++s) {
    flush_shard_pending(*shards_[s]);
    shards_[s]->ring.close();
  }
}

void ShardedPipeline::worker_loop(Shard& shard) {
  RecordBatch batch;
  while (shard.ring.pop(batch)) {
    for (const auto& record : batch) {
      (void)shard.joiner->process(record);
    }
    shard.processed.fetch_add(batch.size(), std::memory_order_release);
    // Empty critical section pairs the notify with the waiter's predicate
    // check (drain() rechecks `processed` under idle_mutex), so the wakeup
    // cannot be lost.
    { std::lock_guard lock(shard.idle_mutex); }
    shard.idle.notify_all();
    pool_.recycle(std::move(batch));
  }
}

void ShardedPipeline::flush_caller_pending(Dispatcher& d) {
  if (d.pending.empty()) return;
  d.ring.push(DispatchItem{std::move(d.pending), 0});
  d.pending = pool_.acquire();
}

void ShardedPipeline::process_batch(RecordBatch&& batch) {
  if (finished_)
    throw std::logic_error("ShardedPipeline: process_batch() after finish()");
  dispatched_ += batch.size();
  if (dispatchers_.size() == 1) {
    // Zero-copy fast path: the whole batch moves into the ring untouched.
    dispatchers_.front()->ring.push(DispatchItem{std::move(batch), 0});
    return;
  }
  for (const auto& record : batch) {
    Dispatcher& d = *dispatchers_[shard_owner_[shard_of(record)]];
    d.pending.append_slot() = record;
    if (d.pending.size() >= batch_size_) flush_caller_pending(d);
  }
  pool_.recycle(std::move(batch));
}

void ShardedPipeline::drain() {
  if (finished_)
    throw std::logic_error("ShardedPipeline: drain() after finish()");
  for (auto& disp : dispatchers_) flush_caller_pending(*disp);
  for (auto& disp : dispatchers_) {
    ++disp->flush_requested;
    disp->ring.push(DispatchItem{RecordBatch{}, disp->flush_requested});
  }
  for (auto& disp : dispatchers_) {
    std::unique_lock lock(disp->ack_mutex);
    disp->ack_cv.wait(
        lock, [&] { return disp->flush_acked >= disp->flush_requested; });
  }
  // Dispatchers are quiescent for our stream prefix: every record is in a
  // shard ring and `enqueued` is final for this barrier. Wait the workers
  // down to it.
  for (auto& shard : shards_) {
    const std::uint64_t target =
        shard->enqueued.load(std::memory_order_acquire);
    std::unique_lock lock(shard->idle_mutex);
    shard->idle.wait(lock, [&] {
      return shard->processed.load(std::memory_order_acquire) >= target;
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
  for (const auto& shard : shards_) {
    const auto p = shard->peak_backlog.load(std::memory_order_relaxed);
    if (p > peak) peak = p;
  }
  return peak;
}

core::JointResults ShardedPipeline::finish() {
  if (finished_)
    throw std::logic_error("ShardedPipeline: finish() called twice");
  finished_ = true;
  for (auto& disp : dispatchers_) {
    flush_caller_pending(*disp);
    disp->ring.close();
  }
  for (auto& disp : dispatchers_) disp->thread.join();
  for (auto& w : workers_) w.join();

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
