#include "map/lutflow.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <tuple>
#include <unordered_map>

#include "map/npn_cache.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/resource.hpp"
#include "util/thread_pool.hpp"

namespace imodec {

namespace {

/// Extend a node-local truth table over `fanins` to the common input list
/// `inputs` of a function vector (every fanin must appear in `inputs`).
TruthTable extend_table(TruthTable tt, const std::vector<SigId>& fanins,
                        const std::vector<SigId>& inputs) {
  std::vector<unsigned> perm(inputs.size(), TruthTable::kNoVar);
  for (unsigned i = 0; i < fanins.size(); ++i) {
    const auto p = std::find(inputs.begin(), inputs.end(), fanins[i]) -
                   inputs.begin();
    assert(p < static_cast<std::ptrdiff_t>(inputs.size()));
    // A repeated fanin (a d-node that is also a free input of its g) reads
    // the same input as its first occurrence.
    if (perm[p] == TruthTable::kNoVar)
      perm[p] = i;
    else
      tt = tt.tie(perm[p], i);
  }
  return tt.permute(perm);
}

/// Structural hashing of logic nodes (same fanin list + same table).
struct NodeKey {
  std::vector<SigId> fanins;
  TruthTable func;
  bool operator==(const NodeKey&) const = default;
};
struct NodeKeyHash {
  std::size_t operator()(const NodeKey& k) const {
    std::size_t h = k.func.hash();
    for (SigId s : k.fanins) h ^= s + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }
};

/// Every option a cached flow result depends on, as the flow runs with it
/// (the result cache compares these exactly; see Flow::cached).
std::vector<std::uint64_t> decomposition_knobs(const FlowOptions& o) {
  return {o.k,
          o.multi_output,
          o.imodec.max_p,
          o.imodec.strict,
          o.imodec.via_v_substitution,
          o.varpart.bound_size,
          o.varpart.max_exhaustive,
          o.varpart.samples,
          o.varpart.climb_iters,
          o.varpart.eval_budget,
          o.varpart.seed,
          o.varpart.require_nontrivial};
}

class Flow {
 public:
  Flow(const Network& src, const FlowOptions& opts)
      : net_(src), opts_(opts), knobs_(decomposition_knobs(opts)) {}

  FlowResult run() {
    obs::ScopedSpan flow_span("flow.decompose_to_luts");
    // Initial worklist: wide logic nodes.
    for (SigId s = 0; s < net_.node_count(); ++s) enqueue_if_wide(s);

    // Worklist rounds: select a batch of node-disjoint groups (serial),
    // decompose every group of the batch (parallel — the expensive part),
    // then merge the results into the network in batch order (serial; this
    // is where d-node structural hashing runs, so the hash map needs no
    // lock). Selection never sees a half-applied batch and application
    // order is fixed, so the result is identical for every thread count.
    while (!worklist_.empty()) {
      // One deterministic governance point per round: in fail mode an
      // expired deadline unwinds here even when the remaining work is too
      // cheap to hit a checkpoint; in degrade mode it flips drain mode on.
      if (opts_.guard) {
        if (opts_.degrade)
          opts_.guard->poll_deadline();
        else
          opts_.guard->checkpoint();
      }
      std::vector<std::vector<SigId>> batch;
      {
        obs::ScopedSpan span("flow.select");
        const unsigned limit = std::max(1u, opts_.batch_groups);
        while (!worklist_.empty() && batch.size() < limit)
          batch.push_back(next_group());
      }
      obs::count("flow.groups", batch.size());

      std::vector<GroupComputation> comps(batch.size());
      {
        obs::ScopedSpan span("flow.decompose_batch");
        const auto compute = [&](std::size_t i) {
          comps[i] = compute_group(std::move(batch[i]));
        };
        if (opts_.pool && batch.size() > 1) {
          const int parent =
              obs::enabled() ? obs::Trace::global().current() : -1;
          opts_.pool->parallel_for(batch.size(), [&](std::size_t i) {
            obs::AdoptParentScope adopt(parent);
            compute(i);
          });
        } else {
          // Single-group batches stay on the caller so choose_bound_set's
          // inner candidate parallelism gets the whole pool.
          for (std::size_t i = 0; i < batch.size(); ++i) compute(i);
        }
      }

      {
        obs::ScopedSpan span("flow.merge");
        for (GroupComputation& c : comps) apply_computation(c);
      }
      if (obs::flight_enabled()) {
        // Guard-margin checkpoint at round granularity: how much budget and
        // wall clock was left after each round (the post-mortem question).
        std::uint64_t live = 0, budget = 0, ms_left = ~std::uint64_t{0};
        if (opts_.guard) {
          live = opts_.guard->live_nodes();
          budget = opts_.guard->node_budget();
          if (const auto left = opts_.guard->remaining_ms()) ms_left = *left;
        }
        obs::flight(obs::FlightKind::guard, "flow.round", live, budget,
                    ms_left);
      }
    }

    if (opts_.guard) {
      opts_.guard->poll_deadline();
      degrade_.deadline_expired = opts_.guard->deadline_expired();
    }
    FlowResult res{std::move(net_), stats_, std::move(degrade_),
                   std::move(recorded_)};
    res.stats.seconds = flow_span.seconds();
    res.stats.luts = count_luts(res.network);
    if (obs::enabled()) {
      obs::count("flow.runs");
      obs::count("flow.vectors", res.stats.vectors);
      obs::count("flow.shannon_fallbacks", res.stats.shannon_fallbacks);
      obs::count("flow.luts", res.stats.luts);
      for (unsigned i = 0; i < kNumDecomposeErrors; ++i) {
        if (res.stats.errors[i])
          obs::count("flow.error." +
                         std::string(to_string(static_cast<DecomposeError>(i))),
                     res.stats.errors[i]);
      }
      const DegradationReport& d = res.degrade;
      if (d.deadline_expired) obs::count("flow.degrade.deadline_expired");
      if (d.engine_exhausted)
        obs::count("flow.degrade.engine_exhausted", d.engine_exhausted);
      if (d.single_fallbacks)
        obs::count("flow.degrade.single_fallbacks", d.single_fallbacks);
      if (d.shannon_degrades)
        obs::count("flow.degrade.shannon", d.shannon_degrades);
      if (d.drained) obs::count("flow.degrade.drained", d.drained);
    }
    return res;
  }

  static unsigned count_luts(const Network& net) {
    unsigned luts = 0;
    std::vector<bool> live(net.node_count(), false);
    std::vector<SigId> stack(net.outputs().begin(), net.outputs().end());
    while (!stack.empty()) {
      const SigId s = stack.back();
      stack.pop_back();
      if (live[s]) continue;
      live[s] = true;
      for (SigId f : net.node(s).fanins) stack.push_back(f);
    }
    for (SigId s = 0; s < net.node_count(); ++s) {
      const auto& n = net.node(s);
      if (live[s] && n.kind == Network::Kind::Logic && !n.fanins.empty())
        ++luts;
    }
    return luts;
  }

 private:
  void enqueue_if_wide(SigId s) {
    const auto& n = net_.node(s);
    if (n.kind == Network::Kind::Logic && n.fanins.size() > opts_.k)
      worklist_.push_back(s);
  }

  /// Pop a group of nodes to decompose together. Seeds with the widest node;
  /// in multi-output mode candidates sharing inputs are added greedily with
  /// the paper's gain test; a candidate that lowers the gain is undone.
  std::vector<SigId> next_group() {
    // Seed: maximum fanin count (paper §7).
    auto seed_it = std::max_element(
        worklist_.begin(), worklist_.end(), [&](SigId a, SigId b) {
          return net_.node(a).fanins.size() < net_.node(b).fanins.size();
        });
    const SigId seed = *seed_it;
    worklist_.erase(seed_it);
    std::vector<SigId> group{seed};
    if (!opts_.multi_output || !opts_.output_partitioning) return group;
    // Drain mode: grouping trials are search effort — skip them, the group
    // will be Shannon-split anyway.
    if (draining()) return group;

    std::vector<SigId> inputs = net_.node(seed).fanins;
    std::sort(inputs.begin(), inputs.end());

    int current_gain = 0;  // gain of a single-node vector is 0
    unsigned trials = 0;
    std::vector<SigId> rejected;
    while (group.size() < opts_.max_vector_outputs &&
           trials < kMaxGroupTrials) {
      // Candidate with maximum input overlap.
      SigId best = kInvalidSig;
      std::size_t best_shared = 0, best_pos = 0;
      for (std::size_t i = 0; i < worklist_.size(); ++i) {
        const SigId cand = worklist_[i];
        if (std::find(rejected.begin(), rejected.end(), cand) !=
            rejected.end())
          continue;
        const auto& fanins = net_.node(cand).fanins;
        std::size_t shared = 0, extra = 0;
        for (SigId f : fanins) {
          if (std::binary_search(inputs.begin(), inputs.end(), f))
            ++shared;
          else
            ++extra;
        }
        if (shared == 0) continue;
        if (inputs.size() + extra > kMaxVectorInputs) continue;
        if (shared > best_shared) {
          best_shared = shared;
          best = cand;
          best_pos = i;
        }
      }
      if (best == kInvalidSig) break;
      ++trials;

      // Trial decomposition of group + candidate.
      std::vector<SigId> trial_group = group;
      trial_group.push_back(best);
      const int gain = vector_gain(trial_group);
      // Keep the combination only for a strictly positive gain that did not
      // decrease (the paper undoes gain-decreasing combinations; we also
      // reject gain-free ones, which share nothing and only widen the
      // common bound set).
      if (gain >= current_gain && gain > 0) {
        group = std::move(trial_group);
        worklist_.erase(worklist_.begin() + static_cast<long>(best_pos));
        for (SigId f : net_.node(best).fanins) inputs.push_back(f);
        std::sort(inputs.begin(), inputs.end());
        inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
        current_gain = gain;
      } else {
        rejected.push_back(best);  // undo the combination (paper §7)
      }
    }
    return group;
  }

  /// A group as a function vector: the union of its fanins (sorted, for
  /// determinism) and each node's table extended to that input list.
  std::pair<std::vector<SigId>, std::vector<TruthTable>> group_vector(
      const std::vector<SigId>& group) const {
    std::vector<SigId> inputs;
    for (SigId s : group)
      for (SigId f : net_.node(s).fanins) inputs.push_back(f);
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    std::vector<TruthTable> funcs;
    funcs.reserve(group.size());
    for (SigId s : group)
      funcs.push_back(
          extend_table(net_.node(s).func, net_.node(s).fanins, inputs));
    return {std::move(inputs), std::move(funcs)};
  }

  /// Codewidth of the node's own best single-output decomposition — the
  /// baseline the paper's output-partitioning gain compares against
  /// ("decomposition gain in comparison to single-output decomposition of
  /// each f_k", §7). Nodes with no non-trivial bound set cost their full
  /// fanin count (they would go through Shannon expansion).
  unsigned own_cost(SigId s) {
    const auto& node = net_.node(s);
    const OwnCostKey key{s, node.fanins.size(), node.func.hash()};
    if (auto it = own_cost_.find(key); it != own_cost_.end())
      return it->second;
    obs::ScopedSpan span("flow.own_cost");
    const unsigned n = static_cast<unsigned>(node.fanins.size());
    unsigned cost = n;
    try {
      cost = *cached(CacheFamily::own_cost, {node.func}, [&] {
                NpnCache::Entry e;
                VarPartOptions vopts = varpart_for(n);
                vopts.eval_budget =
                    std::min<std::uint64_t>(vopts.eval_budget, 1 << 21);
                const auto choice = choose_bound_set({node.func}, n, vopts);
                e.cost = choice ? codewidth(choice->locals[0].num_classes) : n;
                return e;
              }).cost;
    } catch (const util::ResourceExhausted&) {
      // Degrade: an exhausted baseline search just prices the node at its
      // fanin count (its Shannon cost) — timing-dependent, so never cached.
      // Fail: unwind to the caller.
      if (!opts_.degrade) throw;
    }
    own_cost_.emplace(key, cost);
    return cost;
  }

  /// Decomposition gain Σ own_cost - q of a candidate group, or -1 when the
  /// group has no usable common bound set. A trial served from the result
  /// cache performs no engine work: no BDD stats, no trial counter.
  int vector_gain(const std::vector<SigId>& group) {
    // next_group keeps the input union within kMaxVectorInputs.
    const auto [inputs, funcs] = group_vector(group);
    const unsigned n = static_cast<unsigned>(inputs.size());
    std::optional<unsigned> q;
    try {
      obs::ScopedSpan span("flow.trial");
      q = cached(CacheFamily::trial, funcs, [&] {
            ImodecStats st;
            NpnCache::Entry e =
                decompose_vector(funcs, n, trimmed_varpart_for(n), st);
            absorb_bdd(st);
            // Every engine run fills l_k first; a trial that stopped at the
            // search or the p check ran no engine.
            if (!st.l_k.empty()) obs::count("flow.trial_decompositions");
            if (e.dec) e.cost = e.dec->q();
            e.dec.reset();  // a trial keeps only q
            return e;
          }).cost;
    } catch (const util::ResourceExhausted&) {
      // Degrade: an exhausted trial is just a rejected combination —
      // timing-dependent, so never cached. Fail: unwind to the caller.
      if (!opts_.degrade) throw;
    }
    if (!q) return -1;
    int own_sum = 0;
    for (SigId s : group) own_sum += static_cast<int>(own_cost(s));
    return own_sum - static_cast<int>(*q);
  }

  /// The flow's one memo seam: serve `tables` from the session result cache
  /// under (family, decomposition knobs, exact tables), or run `compute` and
  /// store what it returns. Exact keys make a hit equal to the computation
  /// it replaces, so cache-on runs equal cache-off runs (DESIGN.md §14.3).
  /// Vectors wider than kMaxVectorInputs bypass the cache. Exceptions from
  /// `compute` (resource trips — timing-dependent) propagate unstored. With
  /// cache_verify_hits every served decomposition is recomposed against its
  /// key first; a mismatch is counted and recomputed.
  template <class Compute>
  NpnCache::Entry cached(CacheFamily family,
                         const std::vector<TruthTable>& tables,
                         Compute&& compute) const {
    NpnCache* const cache = opts_.npn_cache;
    if (!cache || tables.front().num_vars() > kMaxVectorInputs)
      return compute();
    NpnCache::Key key{family, knobs_, tables};
    if (std::optional<NpnCache::Entry> hit = cache->lookup(key)) {
      if (!opts_.cache_verify_hits || !hit->dec) return std::move(*hit);
      bool ok = true;
      for (std::size_t k = 0; ok && k < tables.size(); ++k)
        ok = recompose(*hit->dec, k, tables[k].num_vars()) == tables[k];
      obs::count("cache.npn.verified");
      if (ok) return std::move(*hit);
      cache->note_verify_failure();
      obs::count("cache.npn.verify_fail");
    }
    NpnCache::Entry e = compute();
    cache->store(std::move(key), e);
    return e;
  }

  /// Bound-set search options for a vector over `num_inputs` variables (b
  /// capped at k and at num_inputs - 1).
  VarPartOptions varpart_for(std::size_t num_inputs) const {
    VarPartOptions vopts = opts_.varpart;
    vopts.bound_size = static_cast<unsigned>(std::min<std::size_t>(
        {opts_.k, opts_.varpart.bound_size, num_inputs - 1}));
    vopts.pool = opts_.pool;  // nested calls degrade to inline gracefully
    vopts.guard = opts_.guard;
    return vopts;
  }

  /// The trimmed search of throwaway decompositions (grouping trials and
  /// the ladder's single-output step).
  VarPartOptions trimmed_varpart_for(std::size_t num_inputs) const {
    VarPartOptions vopts = varpart_for(num_inputs);
    vopts.samples = std::min<std::size_t>(vopts.samples, 12);
    vopts.climb_iters = std::min<std::size_t>(vopts.climb_iters, 4);
    vopts.max_exhaustive = std::min<std::size_t>(vopts.max_exhaustive, 512);
    vopts.eval_budget = std::min<std::uint64_t>(vopts.eval_budget, 1 << 21);
    return vopts;
  }

  /// Everything one group needs computed before it can be merged into the
  /// network. Produced in parallel (read-only over net_); consumed serially.
  struct GroupComputation {
    std::vector<SigId> group;
    std::vector<SigId> inputs;
    std::vector<TruthTable> funcs;
    NpnCache::Entry result;  // the decomposition, or the error ruling it out
    ImodecStats st;
    /// Degradation-ladder outcomes (degrade mode only; see DESIGN.md §12).
    bool drained = false;    // deadline already expired: skip search entirely
    bool exhausted = false;  // the guard tripped during search/engine
    util::ResourceKind exhausted_kind = util::ResourceKind::wall_clock;
  };

  /// Drain mode: the deadline has expired (or the run was cancelled) and the
  /// policy is degrade — stop searching, finish the worklist Shannon-only so
  /// the flow still returns a complete k-feasible network promptly.
  bool draining() const {
    return opts_.degrade && opts_.guard && opts_.guard->should_stop();
  }

  /// Phase 2 worker: decompose one group. Reads net_ and opts_ only — no
  /// member mutation, so any number of these can run concurrently.
  GroupComputation compute_group(std::vector<SigId> group) const {
    // Groups are node-disjoint and a merge rewrites only its own group's
    // nodes, so every member is still wide.
    assert(std::all_of(group.begin(), group.end(), [&](SigId s) {
      return net_.node(s).fanins.size() > opts_.k;
    }));
    GroupComputation c;
    c.group = std::move(group);
    if (draining()) {
      c.drained = true;
      return c;
    }

    std::tie(c.inputs, c.funcs) = group_vector(c.group);
    try {
      c.result = cached(CacheFamily::decomposition, c.funcs, [&] {
        const auto n = static_cast<unsigned>(c.inputs.size());
        return decompose_vector(c.funcs, n, varpart_for(n), c.st);
      });
    } catch (const util::ResourceExhausted& e) {
      // Degrade policy: remember what tripped and let the merge step walk
      // the ladder. Fail policy: unwind (through parallel_for when pooled —
      // the first exception stops the remaining chunks).
      if (!opts_.degrade) throw;
      c.exhausted = true;
      c.exhausted_kind = e.kind();
    }
    return c;
  }

  /// Phase 3 merge: apply one computed group to the network (serial, in
  /// batch order). Structural hashing, stats accumulation and the fallback
  /// paths all live here so they need no synchronization.
  void apply_computation(GroupComputation& c) {
    absorb_bdd(c.st);
    if (c.drained) {
      for (SigId s : c.group)
        shannon_degrade(s, degrade_.drained, "drain_shannon");
      return;
    }
    if (c.exhausted) {
      // Ladder step 1 tripped: fall to per-output single decomposition.
      ++degrade_.engine_exhausted;
      obs::flight(obs::FlightKind::rung, "engine_exhausted", c.group.size(),
                  static_cast<std::uint64_t>(c.exhausted_kind));
      degrade_.note("group of " + std::to_string(c.group.size()) +
                    " exhausted (" + std::string(to_string(c.exhausted_kind)) +
                    "): degrading to per-output decomposition");
      for (SigId s : c.group) degrade_single(s);
      return;
    }
    if (!c.result.dec) {
      if (c.result.error)
        ++stats_.errors[static_cast<std::size_t>(*c.result.error)];
      if (c.group.size() > 1) {
        // No common bound set: fall back to individual processing.
        for (SigId s : c.group) process_single(s);
        return;
      }
      // Guaranteed-progress fallback on a fixed pivot, variable 0 (the golden
      // pins depend on it); the degradation ladder picks the most binate
      // variable instead (see shannon_degrade).
      ++stats_.shannon_fallbacks;
      shannon_split(c.group.front(), 0);
      return;
    }

    if (opts_.multi_output && c.group.size() > 1) {
      // Final gain gate (§7): the shared decomposition must not need more
      // functions than the outputs' own single-output decompositions would.
      unsigned own_sum = 0;
      for (SigId s : c.group) own_sum += own_cost(s);
      if (c.result.dec->q() > own_sum) {
        for (SigId s : c.group) process_single(s);
        return;
      }
    }

    if (opts_.record_vectors && recorded_.size() < 64)
      recorded_.push_back(RecordedVector{c.funcs, c.result.dec->vp, c.st});

    apply_decomposition(c.group, c.inputs, *c.result.dec);

    ++stats_.vectors;
    stats_.lmax_rounds += c.st.lmax_rounds;
    stats_.max_m =
        std::max(stats_.max_m, static_cast<unsigned>(c.group.size()));
    stats_.max_p = std::max(stats_.max_p, c.st.p);
    int sum_c = 0;
    for (unsigned cw : c.st.c_k) sum_c += static_cast<int>(cw);
    if (sum_c > static_cast<int>(c.st.q))
      stats_.shared_functions += static_cast<unsigned>(sum_c) - c.st.q;
  }

  /// The flow's one search-and-decompose routine, shared by committed
  /// groups (compute_group) and grouping trials (vector_gain): bound-set
  /// search under `vopts`, the p check, then the engine, or in single-output
  /// mode the strict single-output decomposition. Exactly one of dec/error
  /// is set in the returned entry; resource trips propagate as exceptions.
  /// Mutates only `st`, so concurrent calls are safe.
  NpnCache::Entry decompose_vector(const std::vector<TruthTable>& funcs,
                                   unsigned num_inputs,
                                   const VarPartOptions& vopts,
                                   ImodecStats& st) const {
    NpnCache::Entry ent;
    const auto choice = choose_bound_set(funcs, num_inputs, vopts);
    if (!choice) {
      ent.error = DecomposeError::no_nontrivial_bound_set;
      return ent;
    }
    if (choice->p() > opts_.imodec.max_p) {
      ent.error = DecomposeError::p_overflow;
      return ent;
    }
    if (opts_.multi_output) {
      ImodecOptions iopts = opts_.imodec;
      iopts.guard = opts_.guard;
      auto res = decompose_multi_output(funcs, choice->vp, iopts, &st);
      if (res)
        ent.dec = std::move(*res);
      else
        ent.error = res.error();
    } else {
      // The "Single" baseline: single-output mode builds only one-node
      // groups (next_group, process_single), each decomposed on its own.
      assert(funcs.size() == 1);
      ent.dec = decompose_single_output(funcs[0], choice->vp, opts_.guard);
      st.l_k = {0};
      st.c_k = {ent.dec->q()};
      st.q = ent.dec->q();
    }
    return ent;
  }

  /// Compute-and-merge of a singleton group, used by the fallback paths of
  /// the merge step. Serial, but choose_bound_set still fans its candidate
  /// evaluation out over the pool.
  void process_single(SigId s) {
    GroupComputation c = compute_group({s});
    apply_computation(c);
  }

  void apply_decomposition(const std::vector<SigId>& group,
                           const std::vector<SigId>& inputs,
                           const Decomposition& dec) {
    // Bound/free signal lists.
    std::vector<SigId> bs_sigs, fs_sigs;
    for (unsigned v : dec.vp.bound) bs_sigs.push_back(inputs[v]);
    for (unsigned v : dec.vp.free_set) fs_sigs.push_back(inputs[v]);

    // Materialize d nodes (structurally hashed across the whole flow).
    std::vector<SigId> d_sigs;
    d_sigs.reserve(dec.d_funcs.size());
    for (const TruthTable& d : dec.d_funcs)
      d_sigs.push_back(materialize(bs_sigs, d));

    // Rewrite each group node into its g function.
    for (std::size_t kk = 0; kk < group.size(); ++kk) {
      const auto& plan = dec.outputs[kk];
      std::vector<SigId> fanins;
      fanins.reserve(plan.d_index.size() + fs_sigs.size());
      for (unsigned idx : plan.d_index) fanins.push_back(d_sigs[idx]);
      for (SigId s : fs_sigs) fanins.push_back(s);

      // Normalize: drop don't-care fanins of g (e.g. free variables the
      // output never depended on).
      TruthTable g = plan.g;
      drop_vacuous_fanins(g, fanins);

      Network::Node& node = net_.node(group[kk]);
      node.fanins = std::move(fanins);
      node.func = std::move(g);
      enqueue_if_wide(group[kk]);
    }
  }

  /// Create (or reuse) a logic node computing `tt` over `fanins`, with
  /// support normalization and structural hashing.
  SigId materialize(std::vector<SigId> fanins, TruthTable tt) {
    drop_vacuous_fanins(tt, fanins);
    if (fanins.empty()) return net_.add_constant(tt.eval(0));
    if (fanins.size() == 1 && tt == TruthTable::var(1, 0))
      return fanins.front();  // identity
    // Structural hashing merges identical d-nodes across vectors — that is
    // common-subfunction extraction, which the single-output baseline by
    // definition does not perform (paper §1), so it only runs in
    // multiple-output mode.
    if (!opts_.multi_output) {
      const SigId s = net_.add_node(fanins, std::move(tt));
      enqueue_if_wide(s);
      return s;
    }
    NodeKey key{fanins, tt};
    if (auto it = hash_.find(key); it != hash_.end()) return it->second;
    const SigId s = net_.add_node(fanins, std::move(tt));
    hash_.emplace(std::move(key), s);
    enqueue_if_wide(s);
    return s;
  }

  /// Ladder step 3 and drain mode: Shannon split on the most binate
  /// variable, so the two cofactors are as balanced as the cheap metric can
  /// tell and the drain produces fewer mux levels than a fixed pivot would.
  /// `counter` and `rung` record which of the two asked for it.
  void shannon_degrade(SigId s, unsigned& counter, std::string_view rung) {
    ++counter;
    obs::flight(obs::FlightKind::rung, rung, s, net_.node(s).fanins.size());
    shannon_split(s, most_binate_var(net_.node(s).func));
  }

  /// Influence of v on f: the number of minterms where flipping v flips f
  /// (2^n-scaled binateness). Deterministic tie-break: the lowest variable
  /// index wins. Returns 0 for (near-)constant functions — the split is
  /// still sound, the cofactors just collapse to constants.
  static unsigned most_binate_var(const TruthTable& f) {
    const std::vector<unsigned> sup = f.support();
    unsigned best_v = sup.empty() ? 0 : sup.front();
    std::uint64_t best_influence = 0;
    for (unsigned v : sup) {
      const std::uint64_t infl =
          (f.cofactor(v, false) ^ f.cofactor(v, true)).count_ones();
      if (infl > best_influence) {
        best_influence = infl;
        best_v = v;
      }
    }
    return best_v;
  }

  /// f = ite(x_v, f1, f0) with a 3-input mux over the two cofactors.
  void shannon_split(SigId s, unsigned v) {
    // Copy fanins/function: materialize() may grow the node arena and
    // invalidate references into it.
    const std::vector<SigId> fanins = net_.node(s).fanins;
    const TruthTable func = net_.node(s).func;
    assert(fanins.size() > opts_.k);
    assert(v < fanins.size());
    const SigId s0 = materialize(fanins, func.cofactor(v, false));
    const SigId s1 = materialize(fanins, func.cofactor(v, true));
    // mux(sel, hi, lo): row bits (sel, hi, lo) -> sel ? hi : lo.
    TruthTable mux(3);
    for (std::uint64_t row = 0; row < 8; ++row) {
      const bool sel = row & 1, hi = (row >> 1) & 1, lo = (row >> 2) & 1;
      mux.set(row, sel ? hi : lo);
    }
    net_.node(s).fanins = {fanins[v], s1, s0};
    net_.node(s).func = std::move(mux);
  }

  /// Ladder step 2: the shared engine run exhausted its budget, so try the
  /// cheap explicit path — a trimmed bound-set search plus the classical
  /// strict single-output decomposition (both still governed; truth-table
  /// work is orders of magnitude cheaper than the implicit engine). If even
  /// that trips, step 3 (Shannon) always succeeds without the guard.
  void degrade_single(SigId s) {
    if (net_.node(s).fanins.size() <= opts_.k) return;
    if (draining()) {
      shannon_degrade(s, degrade_.drained, "drain_shannon");
      return;
    }
    const std::vector<SigId> fanins = net_.node(s).fanins;
    const TruthTable func = net_.node(s).func;
    try {
      const auto choice =
          choose_bound_set({func}, static_cast<unsigned>(fanins.size()),
                           trimmed_varpart_for(fanins.size()));
      if (choice) {
        const Decomposition dec =
            decompose_single_output(func, choice->vp, opts_.guard);
        ++degrade_.single_fallbacks;
        obs::flight(obs::FlightKind::rung, "degrade_single", s,
                    fanins.size());
        apply_decomposition({s}, fanins, dec);
        return;
      }
    } catch (const util::ResourceExhausted&) {
      // fall through to the unconditional Shannon step
    }
    shannon_degrade(s, degrade_.shannon_degrades, "shannon_degrade");
  }

  /// Fold one engine run's BDD totals into the flow stats (trial and
  /// committed decompositions alike — both burn the CPU we account for).
  void absorb_bdd(const ImodecStats& st) {
    stats_.bdd_nodes += st.bdd_nodes;
    stats_.bdd_cache_lookups += st.bdd_cache_lookups;
    stats_.bdd_cache_hits += st.bdd_cache_hits;
  }

  struct OwnCostKey {
    SigId sig;
    std::size_t fanins;
    std::size_t func_hash;
    bool operator==(const OwnCostKey&) const = default;
  };
  struct OwnCostKeyHash {
    std::size_t operator()(const OwnCostKey& k) const {
      return k.sig * 0x9e3779b97f4a7c15ull ^ (k.fanins << 17) ^ k.func_hash;
    }
  };

  Network net_;
  FlowOptions opts_;
  std::vector<std::uint64_t> knobs_;  // result-cache key part (constant)
  FlowStats stats_;
  DegradationReport degrade_;
  std::vector<SigId> worklist_;
  std::vector<RecordedVector> recorded_;
  std::unordered_map<NodeKey, SigId, NodeKeyHash> hash_;
  std::unordered_map<OwnCostKey, unsigned, OwnCostKeyHash> own_cost_;
};

}  // namespace

FlowResult decompose_to_luts(const Network& src, const FlowOptions& opts) {
  Flow flow(src, opts);
  return flow.run();
}

std::optional<Network> collapse_network(const Network& src,
                                        util::ResourceGuard* guard) {
  Network out(src.name());
  std::unordered_map<SigId, SigId> pi_map;
  for (SigId pi : src.inputs())
    pi_map.emplace(pi, out.add_input(src.node(pi).name));

  for (std::size_t k = 0; k < src.num_outputs(); ++k) {
    if (guard) guard->checkpoint();
    const SigId sig = src.outputs()[k];
    const std::vector<SigId> cone = src.cone_inputs(sig);
    auto tt = src.cone_function(sig, cone);
    if (!tt) return std::nullopt;  // support exceeds TruthTable::kMaxVars
    std::vector<SigId> fanins;
    fanins.reserve(cone.size());
    for (SigId pi : cone) fanins.push_back(pi_map.at(pi));
    const std::string& name = src.output_names()[k];
    SigId node;
    if (tt->is_constant()) {
      node = out.add_constant(tt->eval(0));
    } else {
      // Normalize away non-support cone inputs.
      drop_vacuous_fanins(*tt, fanins);
      node = out.add_node(fanins, std::move(*tt), name);
    }
    out.add_output(node, name);
  }
  return out;
}

}  // namespace imodec
