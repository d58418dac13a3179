#include "logic/simplify.hpp"

#include <algorithm>
#include <unordered_map>

namespace imodec {

namespace {

struct NodeSig {
  std::vector<SigId> fanins;
  TruthTable func;
  bool operator==(const NodeSig&) const = default;
};
struct NodeSigHash {
  std::size_t operator()(const NodeSig& k) const {
    std::size_t h = k.func.hash();
    for (SigId s : k.fanins)
      h ^= s + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }
};

}  // namespace

SimplifyStats simplify(Network& net) {
  SimplifyStats stats;

  // `replacement[s]` redirects consumers of s to another signal.
  std::vector<SigId> replacement(net.node_count());
  for (SigId s = 0; s < net.node_count(); ++s) replacement[s] = s;
  const auto resolve = [&](SigId s) {
    while (replacement[s] != s) s = replacement[s];
    return s;
  };

  // Shared constants (created lazily).
  SigId const_sig[2] = {kInvalidSig, kInvalidSig};
  const auto constant = [&](bool v) {
    if (const_sig[v] == kInvalidSig) {
      const_sig[v] = net.add_constant(v);
      replacement.push_back(const_sig[v]);
    }
    return const_sig[v];
  };

  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_map<NodeSig, SigId, NodeSigHash> seen;

    for (SigId s : net.topo_order()) {
      Network::Node& node = net.node(s);
      if (node.kind != Network::Kind::Logic) continue;
      if (replacement[s] != s) continue;  // already redirected

      // Redirect fanins through replacements.
      for (SigId& f : node.fanins) {
        const SigId r = resolve(f);
        if (r != f) {
          f = r;
          changed = true;
        }
      }

      // Tie each repeated fanin to its first occurrence (redirects can alias
      // two table variables to the same signal; e.g. x & x must become x).
      // The repeat is then vacuous and is dropped below.
      for (unsigned j = 1; j < node.fanins.size(); ++j) {
        const auto first = std::find(node.fanins.begin(),
                                     node.fanins.begin() + j, node.fanins[j]);
        if (first == node.fanins.begin() + j) continue;
        node.func = node.func.tie(
            static_cast<unsigned>(first - node.fanins.begin()), j);
        changed = true;
      }

      // Fold constant fanins into the function.
      for (std::size_t i = 0; i < node.fanins.size(); ++i) {
        const auto& fn = net.node(node.fanins[i]);
        if (fn.kind != Network::Kind::Constant) continue;
        node.func = node.func.cofactor(static_cast<unsigned>(i),
                                       fn.func.eval(0));
        ++stats.constants_folded;
        changed = true;
      }

      // Drop vacuous fanins (constant-folded ones become vacuous too).
      if (const std::size_t dropped =
              drop_vacuous_fanins(node.func, node.fanins)) {
        stats.fanins_dropped += dropped;
        changed = true;
      }

      const auto redirect = [&](SigId target) {
        if (replacement[s] != target) {
          replacement[s] = target;
          changed = true;
          return true;
        }
        return false;
      };
      // Constant node?
      if (node.fanins.empty()) {
        redirect(constant(node.func.eval(0)));
        continue;
      }
      // Identity node?
      if (node.fanins.size() == 1 && node.func == TruthTable::var(1, 0)) {
        if (redirect(node.fanins[0])) ++stats.identities_bypassed;
        continue;
      }
      // Structural duplicate?
      NodeSig sig{node.fanins, node.func};
      auto [it, inserted] = seen.emplace(std::move(sig), s);
      if (!inserted && it->second != s) {
        if (redirect(it->second)) ++stats.nodes_deduped;
      }
    }

    // Redirect outputs.
    for (std::size_t k = 0; k < net.num_outputs(); ++k) {
      const SigId r = resolve(net.outputs()[k]);
      if (r != net.outputs()[k]) {
        net.set_output_sig(k, r);
        changed = true;
      }
    }
  }
  net.sweep();
  return stats;
}

}  // namespace imodec
