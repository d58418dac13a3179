#include "logic/net2bdd.hpp"

#include <cassert>

namespace imodec {

bdd::Bdd table_bdd(bdd::Manager& mgr, const TruthTable& tt,
                   const std::vector<unsigned>& vars) {
  assert(vars.size() == tt.num_vars());
  // Recursive Shannon expansion on table variables ordered by their BDD
  // variable index so intermediate results stay reduced.
  std::vector<std::size_t> order(vars.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return vars[a] < vars[b]; });

  // Iterate rows: build as OR of minterm cubes would be exponential in
  // general; instead do recursive splitting over table variables.
  std::function<bdd::Bdd(std::size_t, std::uint64_t, std::uint64_t)> rec =
      [&](std::size_t depth, std::uint64_t fixed_mask,
          std::uint64_t fixed_val) -> bdd::Bdd {
    if (depth == order.size()) {
      const bool bit = tt.eval(fixed_val);
      return bit ? bdd::Bdd::one(mgr) : bdd::Bdd::zero(mgr);
    }
    // Split on the shallowest remaining variable (so results build from the
    // bottom of the BDD order upward).
    const std::size_t ti = order[depth];
    const std::uint64_t bit = std::uint64_t{1} << ti;
    bdd::Bdd lo = rec(depth + 1, fixed_mask | bit, fixed_val);
    bdd::Bdd hi = rec(depth + 1, fixed_mask | bit, fixed_val | bit);
    if (lo == hi) return lo;
    const bdd::Bdd v = bdd::Bdd::var(mgr, vars[ti]);
    return v.ite(hi, lo);
  };
  return rec(0, 0, 0);
}

bdd::Bdd signal_bdd(bdd::Manager& mgr, const Network& net, SigId sig,
                    const PiVarMap& pi_var,
                    std::unordered_map<SigId, bdd::Bdd>& cache) {
  if (auto it = cache.find(sig); it != cache.end()) return it->second;
  const auto& node = net.node(sig);
  bdd::Bdd result;
  switch (node.kind) {
    case Network::Kind::Input: {
      auto it = pi_var.find(sig);
      assert(it != pi_var.end() && "unmapped primary input");
      result = bdd::Bdd::var(mgr, it->second);
      break;
    }
    case Network::Kind::Constant:
      result = node.func.eval(0) ? bdd::Bdd::one(mgr) : bdd::Bdd::zero(mgr);
      break;
    case Network::Kind::Logic: {
      // Compose the node table over fanin BDDs via Shannon expansion of the
      // table (fanin BDDs substituted for table variables).
      std::vector<bdd::Bdd> fanin_bdds;
      fanin_bdds.reserve(node.fanins.size());
      for (SigId f : node.fanins)
        fanin_bdds.push_back(signal_bdd(mgr, net, f, pi_var, cache));
      // Evaluate the table as a multiplexer tree over fanin BDDs.
      std::function<bdd::Bdd(std::size_t, std::uint64_t)> rec =
          [&](std::size_t i, std::uint64_t fixed) -> bdd::Bdd {
        if (i == node.fanins.size()) {
          return node.func.eval(fixed) ? bdd::Bdd::one(mgr)
                                       : bdd::Bdd::zero(mgr);
        }
        bdd::Bdd lo = rec(i + 1, fixed);
        bdd::Bdd hi = rec(i + 1, fixed | (std::uint64_t{1} << i));
        if (lo == hi) return lo;
        return fanin_bdds[i].ite(hi, lo);
      };
      result = rec(0, 0);
      break;
    }
  }
  cache.emplace(sig, result);
  return result;
}

}  // namespace imodec
