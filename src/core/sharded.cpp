#include "core/sharded.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace arams::core {

using linalg::Matrix;
using linalg::MatrixViewF;

namespace {

/// First row index of `batch` that round-robins onto shard s when the
/// lifetime cursor stands at `cursor` (rows land on (cursor + j) mod P).
std::size_t first_row_for(std::size_t s, std::size_t cursor, std::size_t p) {
  return (s + p - cursor % p) % p;
}

std::size_t rows_for(std::size_t first, std::size_t n, std::size_t p) {
  return first < n ? (n - first + p - 1) / p : 0;
}

}  // namespace

ShardedSketcher::ShardedSketcher(const SketcherConfig& inner,
                                 std::size_t shards,
                                 parallel::ThreadPool* pool)
    : pool_(pool) {
  ARAMS_CHECK(shards >= 1, "sharded: shard count must be >= 1, got " +
                               std::to_string(shards));
  inner_name_ = inner.backend;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    SketcherConfig config = inner;
    config.shards = 1;
    config.seed = inner.seed + s;
    config.arams.seed = inner.arams.seed + s;
    Shard shard;
    shard.inner = make_sketcher(config);
    shard.rows_gauge =
        &obs::metrics().gauge("sketch.shard_rows." + std::to_string(s));
    shards_.push_back(std::move(shard));
  }
  inner_name_ = shards_.front().inner->name();
}

bool ShardedSketcher::use_pool() const {
  return pool_ != nullptr && pool_->thread_count() > 1 && shards_.size() > 1;
}

void ShardedSketcher::pool_dispatch(
    const std::function<void(std::size_t)>& fn) {
  pool_->parallel_for(shards_.size(), fn);
}

template <typename View>
void ShardedSketcher::push_rows(View batch) {
  if (batch.rows() == 0) return;
  const obs::ScopedSpan span("sketch.sharded_ingest");
  const std::size_t p = shards_.size();
  const std::size_t n = batch.rows();
  const std::size_t cursor = row_cursor_;
  for_each_shard([&](std::size_t s) {
    Shard& shard = shards_[s];
    const std::size_t first = first_row_for(s, cursor, p);
    const std::size_t count = rows_for(first, n, p);
    if (count == 0) return;
    if (p == 1) {
      // One shard sees the whole batch: skip the gather copy entirely.
      shard.inner->push_batch(batch);
    } else {
      auto& gathered = shard.gather(batch);
      gathered.reshape(count, batch.cols());
      std::size_t at = 0;
      for (std::size_t j = first; j < n; j += p) {
        gathered.set_row(at++, batch.row(j));
      }
      shard.inner->push_batch(View(gathered));
    }
    shard.rows += static_cast<long>(count);
  });
  row_cursor_ += n;
  if constexpr (std::is_same_v<View, MatrixViewF>) {
    // Credit the lane on the wrapper: report() reads this object's
    // counters, and the inner sketchers account their own widen time.
    note_f32_rows(n);
  }
  for (auto& shard : shards_) {
    shard.rows_gauge->set(static_cast<double>(shard.rows));
  }
}

void ShardedSketcher::push_batch(linalg::MatrixView batch) {
  push_rows(batch);
}

void ShardedSketcher::push_batch(MatrixViewF batch) { push_rows(batch); }

Matrix ShardedSketcher::sketch() {
  const std::size_t d = dim();
  if (d == 0) return Matrix();
  std::vector<Matrix> parts;
  parts.reserve(shards_.size());
  for (auto& shard : shards_) {
    if (shard.inner->dim() == 0) continue;
    Matrix part = shard.inner->sketch();
    if (part.rows() > 0) parts.push_back(std::move(part));
  }
  if (parts.empty()) return Matrix(0, d);
  if (parts.size() == 1) return std::move(parts.front());
  return tree_merge(std::move(parts), current_ell(), 2, &last_merge_stats_,
                    pool_);
}

std::size_t ShardedSketcher::current_ell() const {
  std::size_t ell = 0;
  for (const auto& shard : shards_) {
    ell = std::max(ell, shard.inner->current_ell());
  }
  return ell;
}

std::size_t ShardedSketcher::dim() const {
  for (const auto& shard : shards_) {
    if (shard.inner->dim() > 0) return shard.inner->dim();
  }
  return 0;
}

SketchStats ShardedSketcher::stats() const {
  SketchStats total;
  for (const auto& shard : shards_) {
    total += shard.inner->stats();
  }
  return total;
}

std::string ShardedSketcher::name() const {
  return "sharded:" + inner_name_;
}

void ShardedSketcher::report(obs::StageReport& out) const {
  Sketcher::report(out);
  out.add_counter("shards", static_cast<long>(shards_.size()));
  if (last_merge_stats_.merge_ops > 0) {
    append_to_report(last_merge_stats_, out);
  }
}

long ShardedSketcher::shard_rows(std::size_t s) const {
  ARAMS_CHECK(s < shards_.size(), "shard index out of range");
  return shards_[s].rows;
}

}  // namespace arams::core
