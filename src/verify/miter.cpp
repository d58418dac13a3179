#include "verify/miter.hpp"

#include <algorithm>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "logic/net2bdd.hpp"
#include "obs/metrics.hpp"
#include "util/resource.hpp"

namespace imodec::verify {
namespace {

/// Static variable order: BDD variable of input position p is var_of_pos[p].
/// Computed by a depth-first walk of the reference network from its outputs
/// — inputs are numbered at first visit, which keeps the inputs of one cone
/// adjacent in the order (the classical fanin-interleaving heuristic).
/// Identity order makes wide shifter-like circuits (rot, 135 inputs)
/// exponential; DFS order keeps them linear.
std::vector<unsigned> dfs_variable_order(const Network& net) {
  std::vector<unsigned> pos_of_sig(net.node_count(), 0);
  for (std::size_t p = 0; p < net.inputs().size(); ++p)
    pos_of_sig[net.inputs()[p]] = static_cast<unsigned>(p);

  std::vector<unsigned> var_of_pos(net.inputs().size(),
                                   std::numeric_limits<unsigned>::max());
  unsigned next_var = 0;
  std::vector<bool> seen(net.node_count(), false);
  std::vector<SigId> stack;
  for (auto it = net.outputs().rbegin(); it != net.outputs().rend(); ++it)
    stack.push_back(*it);
  while (!stack.empty()) {
    const SigId s = stack.back();
    stack.pop_back();
    if (seen[s]) continue;
    seen[s] = true;
    const Network::Node& node = net.node(s);
    if (node.kind == Network::Kind::Input) {
      var_of_pos[pos_of_sig[s]] = next_var++;
      continue;
    }
    for (auto f = node.fanins.rbegin(); f != node.fanins.rend(); ++f)
      stack.push_back(*f);
  }
  // Inputs outside every output cone keep their relative order at the end.
  for (unsigned& v : var_of_pos)
    if (v == std::numeric_limits<unsigned>::max()) v = next_var++;
  return var_of_pos;
}

/// Build one BDD per output of `net` over PI variables keyed by input
/// position. Walks the output cones in topological order. The node budget is
/// enforced by the guard attached to `mgr` — inside make_node, i.e. at BDD
/// node granularity: a blow-up in the middle of one wide gate throws
/// util::ResourceExhausted (after a GC retry) instead of overshooting the
/// budget until the gate completes.
void build_outputs(bdd::Manager& mgr, const Network& net,
                   const std::vector<unsigned>& var_of_pos,
                   std::vector<bdd::Bdd>& out) {
  PiVarMap pi_var;
  for (std::size_t i = 0; i < net.inputs().size(); ++i)
    pi_var.emplace(net.inputs()[i], var_of_pos[i]);

  // Restrict the walk to nodes actually feeding an output.
  std::vector<bool> in_cone(net.node_count(), false);
  std::vector<SigId> stack(net.outputs().begin(), net.outputs().end());
  while (!stack.empty()) {
    const SigId s = stack.back();
    stack.pop_back();
    if (in_cone[s]) continue;
    in_cone[s] = true;
    for (SigId f : net.node(s).fanins) stack.push_back(f);
  }

  std::unordered_map<SigId, bdd::Bdd> cache;
  for (SigId s : net.topo_order()) {
    if (!in_cone[s]) continue;
    signal_bdd(mgr, net, s, pi_var, cache);
  }
  out.reserve(net.outputs().size());
  for (SigId o : net.outputs()) out.push_back(cache.at(o));
}

}  // namespace

MiterResult check_miter(const Network& a, const Network& b,
                        const MiterOptions& opts) {
  MiterResult res;
  if (a.num_inputs() != b.num_inputs() ||
      a.num_outputs() != b.num_outputs()) {
    res.proven = true;
    res.interface_mismatch = true;
    return res;  // equivalent stays false
  }

  // The miter's own guard: the caller's node_budget, plus (when an outer
  // guard is given) its remaining deadline and cancellation, mirrored so a
  // governed synthesis run's timeout also bounds the proof attempt. Declared
  // before the manager — the manager's destructor uncharges the guard.
  util::ResourceGuard guard;
  if (opts.node_budget != std::numeric_limits<std::size_t>::max())
    guard.set_node_budget(opts.node_budget);
  if (opts.guard) {
    if (opts.guard->should_stop()) return res;  // unproven: fall back to sim
    if (const auto ms = opts.guard->remaining_ms())
      guard.set_deadline_ms(std::max<std::uint64_t>(*ms, 1));
  }

  bdd::Manager mgr(static_cast<unsigned>(a.num_inputs()));
  mgr.set_resource_guard(&guard);
  // Order variables by a DFS over `a` (the reference network); `b` maps its
  // inputs by position, so both sides agree on the variables.
  const std::vector<unsigned> var_of_pos = dfs_variable_order(a);
  try {
    // Building both networks' output BDDs is the proof's cost; comparing
    // them afterwards is O(1) per output on canonical BDDs.
    obs::Histogram* const build_hist =
        obs::enabled() ? &obs::Registry::current().histogram("miter.build_us")
                       : nullptr;
    std::vector<bdd::Bdd> fa, fb;
    obs::time_us(build_hist, [&] { build_outputs(mgr, a, var_of_pos, fa); });
    obs::time_us(build_hist, [&] { build_outputs(mgr, b, var_of_pos, fb); });
    res.equivalent = true;
    res.proven = true;
    for (std::size_t j = 0; j < fa.size(); ++j) {
      if (opts.guard && opts.guard->cancel_requested()) {
        res.proven = false;
        res.equivalent = false;
        break;
      }
      const bdd::Bdd miter = fa[j] ^ fb[j];
      if (!miter.is_zero()) {
        res.equivalent = false;
        res.failing_output = j;
        std::vector<bool> assignment;
        if (mgr.pick_minterm(miter.node(), assignment)) {
          // pick_minterm indexes by BDD variable; permute back to input
          // position so callers can feed the cube straight to eval().
          std::vector<bool> cex(a.num_inputs(), false);
          for (std::size_t p = 0; p < cex.size(); ++p)
            cex[p] = assignment[var_of_pos[p]];
          res.counterexample = std::move(cex);
        }
        break;
      }
    }
  } catch (const util::ResourceExhausted&) {
    // Budget / deadline trip mid-proof: report unproven (callers fall back
    // to simulation), never a crash or a partial verdict.
    res.proven = false;
    res.equivalent = false;
  }
  if (obs::enabled()) {
    // Collect the proof's garbage under the pause timer (so even small
    // miters land a real bdd.gc_pause_us sample) and publish this manager's
    // kernel stats under its own prefix, separable from the engine's.
    mgr.garbage_collect();
    mgr.publish_stats("miter.bdd");
  }
  res.peak_nodes = mgr.peak_node_count();
  return res;
}

}  // namespace imodec::verify
