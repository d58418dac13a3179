#include "imodec/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <optional>

#include "bdd/manager_pool.hpp"
#include "imodec/lmax.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/resource.hpp"

namespace imodec {

namespace {

/// Decomposition function from its positional-set form: d(x) = 1 iff the
/// global class of x is in the onset mask.
TruthTable d_from_mask(const VertexPartition& global, std::uint64_t z_mask) {
  TruthTable d(global.b);
  for (std::uint64_t x = 0; x < global.num_vertices(); ++x)
    d.set(x, (z_mask >> global.class_of[x]) & 1);
  return d;
}

}  // namespace

Result<Decomposition> decompose_multi_output(
    const std::vector<TruthTable>& outputs, const VarPartition& vp,
    const ImodecOptions& opts, ImodecStats* stats) {
  assert(!outputs.empty());
  // The span is the run's single timing source: stats->seconds comes from it
  // and — when tracing is on — it anchors the engine's subtree in the trace.
  obs::ScopedSpan run_span("engine.decompose");
  const std::size_t m = outputs.size();

  // --- Local partitions and the global partition (paper §3, §4). ----------
  std::vector<VertexPartition> locals;
  locals.reserve(m);
  {
    obs::ScopedSpan span("engine.partitions");
    for (const TruthTable& f : outputs)
      locals.push_back(local_partition_tt(f, vp));
  }
  const VertexPartition global = global_partition(locals);
  const std::uint32_t p = global.num_classes;

  if (stats) {
    stats->p = p;
    stats->l_k.clear();
    stats->c_k.clear();
    for (const auto& l : locals) {
      stats->l_k.push_back(l.num_classes);
      stats->c_k.push_back(codewidth(l.num_classes));
    }
  }
  if (p > opts.max_p) return DecomposeError::p_overflow;
  for (const auto& l : locals)
    if (codewidth(l.num_classes) > vp.b())
      return DecomposeError::codewidth_exceeds_b;

  // --- Per-output assignment state. ----------------------------------------
  std::vector<OutputState> states(m);
  std::vector<std::uint32_t> all_classes(p);
  for (std::uint32_t g = 0; g < p; ++g) all_classes[g] = g;
  for (std::size_t k = 0; k < m; ++k) {
    states[k].codewidth = codewidth(locals[k].num_classes);
    states[k].assigned = 0;
    states[k].blocks = {all_classes};
    states[k].local_of_global.resize(p);
    for (std::uint64_t x = 0; x < global.num_vertices(); ++x)
      states[k].local_of_global[global.class_of[x]] = locals[k].class_of[x];
  }

  Decomposition result;
  result.vp = vp;
  result.outputs.resize(m);

  // Accepted functions, deduplicated by positional-set mask.
  std::map<std::uint64_t, unsigned> d_index_of_mask;
  const auto accept = [&](std::uint64_t z_mask) -> unsigned {
    auto [it, inserted] =
        d_index_of_mask.emplace(z_mask, static_cast<unsigned>(result.d_funcs.size()));
    if (inserted) result.d_funcs.push_back(d_from_mask(global, z_mask));
    return it->second;
  };

  // --- Greedy implicit selection loop (paper §6). ---------------------------
  // Leased from the warm pool when one is provided (a reset manager behaves
  // bit-identically to a fresh one), constructed in place otherwise.
  bdd::ManagerPool::Lease lease;
  std::optional<bdd::Manager> local_mgr;
  if (opts.manager_pool)
    lease = opts.manager_pool->acquire(p);
  else
    local_mgr.emplace(p);
  bdd::Manager& mgr = lease ? lease.get() : *local_mgr;
  // Governed run: the manager checkpoints the guard in make_node, so deadline
  // expiry, cancellation, and node-budget trips surface from every implicit
  // operation below as util::Timeout / util::ResourceExhausted.
  mgr.set_resource_guard(opts.guard);
  const ChiOptions chi_opts{opts.via_v_substitution, opts.strict};

  std::vector<bdd::Bdd> chi(m);
  std::vector<bool> chi_valid(m, false);

  unsigned lmax_rounds = 0, chi_builds = 0;
  std::uint64_t candidates = 0;

  // Per-round timing into the obs histogram; the lookup is hoisted so the
  // loop pays two clock reads per round, not a registry probe.
  obs::Histogram* round_hist =
      obs::enabled() ? &obs::Registry::current().histogram("engine.round_us")
                     : nullptr;
  const bool flight = obs::FlightRecorder::current() != nullptr;
  for (unsigned round = 0;; ++round) {
    if (opts.guard) opts.guard->checkpoint();
    const auto round_start = round_hist || flight
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    std::vector<std::size_t> incomplete;
    for (std::size_t k = 0; k < m; ++k)
      if (!states[k].complete()) incomplete.push_back(k);
    if (incomplete.empty()) break;

    std::vector<bdd::Bdd> active;
    active.reserve(incomplete.size());
    {
      obs::ScopedSpan span("engine.chi");
      for (std::size_t k : incomplete) {
        if (!chi_valid[k]) {
          chi[k] = build_chi(mgr, p, states[k], chi_opts);
          chi_valid[k] = true;
          ++chi_builds;
          // A preferable function always exists for an incomplete output
          // (balanced split of the classes in each block is constructable and
          // assignable); see DESIGN.md §5.
          assert(!chi[k].is_zero());
        }
        active.push_back(chi[k]);
      }
    }

    LmaxResult pick;
    {
      obs::ScopedSpan span("engine.lmax");
      pick = lmax(mgr, p, active);
    }
    ++lmax_rounds;
    candidates += incomplete.size();
    assert(pick.coverage >= 1);

    const unsigned d_idx = accept(pick.z_mask);
    for (std::size_t i = 0; i < incomplete.size(); ++i) {
      if (!pick.covers[i]) continue;
      const std::size_t k = incomplete[i];
      states[k].split_blocks(pick.z_mask);
      states[k].chosen.push_back(d_idx);
      chi_valid[k] = false;
    }
    if (round_hist || flight) {
      const auto us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - round_start)
              .count());
      if (round_hist) round_hist->record(us);
      // Guard margin at round granularity: live nodes vs budget, ms left.
      if (opts.guard) {
        const auto left = opts.guard->remaining_ms();
        obs::flight(obs::FlightKind::guard, "engine.round",
                    opts.guard->live_nodes(), opts.guard->node_budget(),
                    left ? *left : ~std::uint64_t{0});
      }
    }
    // Defensive bound: each round assigns >= 1 function to >= 1 output.
    assert(round <= 64 * m);
  }

  // --- Completion invariants and g construction. ----------------------------
  {
    obs::ScopedSpan span("engine.build_g");
    for (std::size_t k = 0; k < m; ++k) {
      assert(states[k].refined());
      result.outputs[k].d_index = states[k].chosen;
      std::vector<TruthTable> chosen_d;
      chosen_d.reserve(states[k].chosen.size());
      for (unsigned idx : states[k].chosen)
        chosen_d.push_back(result.d_funcs[idx]);
      result.outputs[k].g = build_g(outputs[k], vp, chosen_d);
    }
  }

  // Property 1: ⌈ld p⌉ <= q must hold for any valid decomposition.
  assert(result.d_funcs.empty() ||
         (std::uint64_t{1} << result.d_funcs.size()) >= p);

  if (stats) {
    stats->q = result.q();
    stats->lmax_rounds = lmax_rounds;
    stats->chi_builds = chi_builds;
    stats->candidates = candidates;
    stats->seconds = run_span.seconds();
    stats->bdd_nodes = mgr.stats().nodes_allocated;
    stats->bdd_cache_lookups = mgr.stats().cache_lookups;
    stats->bdd_cache_hits = mgr.stats().cache_hits;
  }
  if (obs::enabled()) {
    obs::count("engine.runs");
    obs::count("engine.lmax_rounds", lmax_rounds);
    obs::count("engine.chi_builds", chi_builds);
    obs::count("engine.candidates", candidates);
    obs::count("engine.d_functions", result.d_funcs.size());
    mgr.publish_stats();
  }
  return result;
}

unsigned sum_codewidths(const std::vector<TruthTable>& outputs,
                        const VarPartition& vp) {
  unsigned sum = 0;
  for (const TruthTable& f : outputs)
    sum += codewidth(local_partition_tt(f, vp).num_classes);
  return sum;
}

}  // namespace imodec
