#include "decomp/varpart.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace imodec {

namespace {

VarPartition make_vp(unsigned num_vars, std::vector<unsigned> bound) {
  std::sort(bound.begin(), bound.end());
  VarPartition vp;
  vp.bound = std::move(bound);
  for (unsigned v = 0; v < num_vars; ++v) {
    if (!std::binary_search(vp.bound.begin(), vp.bound.end(), v))
      vp.free_set.push_back(v);
  }
  return vp;
}

/// Lexicographic score: (p, Σ ℓ_k); smaller is better.
std::pair<std::uint64_t, std::uint64_t> score(const VarPartChoice& c) {
  std::uint64_t sum_l = 0;
  for (const auto& l : c.locals) sum_l += l.num_classes;
  return {c.global.num_classes, sum_l};
}

std::optional<VarPartChoice> evaluate_candidate(
    const std::vector<TruthTable>& outputs, unsigned num_vars,
    const std::vector<unsigned>& bound, bool require_nontrivial,
    const std::vector<std::vector<unsigned>>& supports) {
  VarPartChoice choice;
  choice.vp = make_vp(num_vars, bound);
  choice.locals.reserve(outputs.size());
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    VertexPartition lp = local_partition_tt(outputs[k], choice.vp);
    if (require_nontrivial) {
      // Strict per-output progress: overlap with the support must exceed
      // the codewidth (see VarPartOptions::require_nontrivial).
      unsigned overlap = 0;
      for (unsigned v : supports[k])
        overlap += std::binary_search(choice.vp.bound.begin(),
                                      choice.vp.bound.end(), v);
      if (overlap <= codewidth(lp.num_classes)) return std::nullopt;
    }
    choice.locals.push_back(std::move(lp));
  }
  choice.global = global_partition(choice.locals);
  return choice;
}

using Results = std::vector<std::optional<VarPartChoice>>;

/// Evaluate every candidate in `cands`, in parallel when a pool is given:
/// one guard checkpoint and one `varpart.candidate_us` sample each.
/// results[i] belongs to cands[i], so every reduction of the results is
/// independent of the thread count.
Results evaluate_candidates(const std::vector<TruthTable>& outputs,
                            unsigned num_vars,
                            const std::vector<std::vector<unsigned>>& cands,
                            const std::vector<std::vector<unsigned>>& supports,
                            const VarPartOptions& opts) {
  Results results(cands.size());
  // Hoisted so the hot path pays only two clock reads per
  // multi-microsecond evaluation; nullptr when observability is off.
  obs::Histogram* const hist =
      obs::enabled()
          ? &obs::Registry::current().histogram("varpart.candidate_us")
          : nullptr;
  const auto eval_one = [&](std::size_t i) {
    // A deadline/cancellation trip in any worker unwinds through
    // parallel_for (the first exception stops the remaining chunks and is
    // rethrown on the caller).
    if (opts.guard) opts.guard->checkpoint();
    obs::time_us(hist, [&] {
      results[i] = evaluate_candidate(outputs, num_vars, cands[i],
                                      opts.require_nontrivial, supports);
    });
  };
  if (opts.pool && cands.size() > 1) {
    const obs::TraceContext ctx = obs::TraceContext::current();
    opts.pool->parallel_for(cands.size(), [&](std::size_t i) {
      const obs::TraceScope scope(ctx);
      eval_one(i);
    });
  } else {
    for (std::size_t i = 0; i < cands.size(); ++i) eval_one(i);
  }
  return results;
}

/// The best result by (score, candidate index) — the winner a serial
/// first-strictly-better scan keeps.
std::optional<VarPartChoice> best_of(Results results) {
  std::optional<VarPartChoice> best;
  for (auto& cand : results) {
    if (!cand) continue;
    if (!best || score(*cand) < score(*best)) best = std::move(cand);
  }
  return best;
}

}  // namespace

std::optional<VarPartChoice> choose_bound_set(
    const std::vector<TruthTable>& outputs, unsigned num_vars,
    const VarPartOptions& opts) {
  assert(!outputs.empty());
#ifndef NDEBUG
  for (const TruthTable& f : outputs) assert(f.num_vars() == num_vars);
#endif
  if (num_vars < 2) return std::nullopt;

  unsigned b = std::min(opts.bound_size, num_vars - 1);
  if (b == 0) return std::nullopt;

  // Evaluating one candidate costs m * 2^n row reads; budget the number of
  // candidates so wide vectors stay tractable (the paper's flow likewise
  // limits effort on large supports, §7). All in exact uint64 arithmetic:
  // m <= 64 and n <= TruthTable::kMaxVars keep m << n far below overflow.
  const std::uint64_t row_cost = static_cast<std::uint64_t>(outputs.size())
                                 << num_vars;
  const std::size_t allowed = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      opts.eval_budget / row_cost, 4, std::uint64_t{1} << 20));

  std::vector<std::vector<unsigned>> supports;
  supports.reserve(outputs.size());
  for (const TruthTable& f : outputs) supports.push_back(f.support());

  // Count C(num_vars, b) with saturation.
  std::uint64_t combos = 1;
  for (unsigned i = 0; i < b; ++i) {
    combos = combos * (num_vars - i) / (i + 1);
    if (combos > opts.max_exhaustive * 4) break;
  }

  // Candidate generation is serial and cheap; evaluation is the hot part
  // and fans out over the pool.
  std::vector<std::vector<unsigned>> cands;
  if (combos <= std::min(opts.max_exhaustive, allowed)) {
    // Exhaustive enumeration of all bound sets of size b.
    cands.reserve(static_cast<std::size_t>(combos));
    std::vector<unsigned> idx(b);
    for (unsigned i = 0; i < b; ++i) idx[i] = i;
    for (;;) {
      cands.push_back(idx);
      // next combination
      int i = static_cast<int>(b) - 1;
      while (i >= 0 && idx[i] == num_vars - b + i) --i;
      if (i < 0) break;
      ++idx[i];
      for (unsigned j = static_cast<unsigned>(i) + 1; j < b; ++j)
        idx[j] = idx[j - 1] + 1;
    }
    return best_of(
        evaluate_candidates(outputs, num_vars, cands, supports, opts));
  }

  // Sampling + hill climbing.
  Rng rng(opts.seed);
  std::vector<unsigned> all(num_vars);
  for (unsigned v = 0; v < num_vars; ++v) all[v] = v;

  const std::size_t samples = std::min(opts.samples, allowed);
  cands.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    // Random b-subset (partial Fisher-Yates).
    std::vector<unsigned> pool_vars = all;
    for (unsigned i = 0; i < b; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.below(pool_vars.size() - i));
      std::swap(pool_vars[i], pool_vars[j]);
    }
    cands.emplace_back(pool_vars.begin(), pool_vars.begin() + b);
  }
  std::optional<VarPartChoice> best =
      best_of(evaluate_candidates(outputs, num_vars, cands, supports, opts));
  if (!best) return std::nullopt;

  // Hill climbing: try swapping one bound variable against one free one.
  // Each iteration evaluates the whole neighborhood in parallel, then keeps
  // the first improving neighbor in (bi, fi) order — the same neighbor the
  // serial first-improvement scan accepts.
  const std::size_t climb_cost =
      static_cast<std::size_t>(b) * (num_vars - b);
  const std::size_t climb_iters =
      climb_cost > allowed ? 0
                           : std::min<std::size_t>(opts.climb_iters,
                                                   allowed / climb_cost + 1);
  for (std::size_t it = 0; it < climb_iters; ++it) {
    const auto current = score(*best);
    const VarPartition vp = best->vp;
    std::vector<std::vector<unsigned>> neighbors;
    neighbors.reserve(climb_cost);
    for (std::size_t bi = 0; bi < vp.bound.size(); ++bi) {
      for (std::size_t fi = 0; fi < vp.free_set.size(); ++fi) {
        std::vector<unsigned> bound = vp.bound;
        bound[bi] = vp.free_set[fi];
        neighbors.push_back(std::move(bound));
      }
    }
    bool improved = false;
    for (auto& cand :
         evaluate_candidates(outputs, num_vars, neighbors, supports, opts)) {
      if (cand && score(*cand) < current) {
        best = std::move(cand);
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  return best;
}

}  // namespace imodec
