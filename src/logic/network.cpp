#include "logic/network.hpp"

#include <algorithm>
#include <cassert>

namespace imodec {

SigId Network::add_input(const std::string& name) {
  const SigId id = static_cast<SigId>(nodes_.size());
  nodes_.push_back(Node{Kind::Input, name, {}, TruthTable{}});
  inputs_.push_back(id);
  if (!name.empty()) by_name_[name] = id;
  return id;
}

SigId Network::add_constant(bool value) {
  const SigId id = static_cast<SigId>(nodes_.size());
  nodes_.push_back(Node{Kind::Constant, "", {}, TruthTable(0, value)});
  return id;
}

SigId Network::add_node(const std::vector<SigId>& fanins, TruthTable func,
                        const std::string& name) {
  assert(func.num_vars() == fanins.size());
#ifndef NDEBUG
  for (SigId f : fanins) assert(f < nodes_.size());
#endif
  const SigId id = static_cast<SigId>(nodes_.size());
  nodes_.push_back(Node{Kind::Logic, name, fanins, std::move(func)});
  if (!name.empty()) by_name_[name] = id;
  return id;
}

void Network::add_output(SigId sig, const std::string& name) {
  assert(sig < nodes_.size());
  outputs_.push_back(sig);
  output_names_.push_back(name);
}

SigId Network::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidSig : it->second;
}

std::vector<SigId> Network::topo_order() const {
  // Nodes are created fanin-first, but rewriting transforms (decomposition
  // replaces a node's function with a g over freshly added d-nodes) can make
  // a node depend on higher ids, so a real DFS post-order is required.
  std::vector<SigId> order;
  order.reserve(nodes_.size());
  std::vector<std::uint8_t> state(nodes_.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<SigId> stack;
  for (SigId root = 0; root < nodes_.size(); ++root) {
    if (state[root] == 2) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const SigId s = stack.back();
      if (state[s] == 0) {
        state[s] = 1;
        for (SigId f : nodes_[s].fanins) {
          assert(state[f] != 1 && "combinational cycle");
          if (state[f] == 0) stack.push_back(f);
        }
      } else {
        stack.pop_back();
        if (state[s] != 2) {
          state[s] = 2;
          order.push_back(s);
        }
      }
    }
  }
  return order;
}

std::size_t Network::logic_count() const {
  std::size_t n = 0;
  for (const Node& node : nodes_)
    if (node.kind == Kind::Logic) ++n;
  return n;
}

unsigned Network::depth() const {
  std::vector<unsigned> level(nodes_.size(), 0);
  unsigned d = 0;
  for (SigId i : topo_order()) {
    const Node& n = nodes_[i];
    if (n.kind != Kind::Logic) continue;
    unsigned l = 0;
    for (SigId f : n.fanins) l = std::max(l, level[f]);
    level[i] = l + 1;
    d = std::max(d, level[i]);
  }
  return d;
}

unsigned Network::max_fanin() const {
  unsigned m = 0;
  for (const Node& n : nodes_)
    if (n.kind == Kind::Logic)
      m = std::max(m, static_cast<unsigned>(n.fanins.size()));
  return m;
}

std::vector<bool> Network::eval(const std::vector<bool>& input_values) const {
  return eval_ordered(input_values, topo_order());
}

std::vector<bool> Network::eval_ordered(const std::vector<bool>& input_values,
                                        const std::vector<SigId>& order) const {
  assert(input_values.size() == inputs_.size());
  std::vector<bool> value(nodes_.size(), false);
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    value[inputs_[i]] = input_values[i];
  for (SigId i : order) {
    const Node& n = nodes_[i];
    if (n.kind == Kind::Constant) {
      value[i] = n.func.eval(0);
    } else if (n.kind == Kind::Logic) {
      std::uint64_t row = 0;
      for (std::size_t k = 0; k < n.fanins.size(); ++k)
        if (value[n.fanins[k]]) row |= std::uint64_t{1} << k;
      value[i] = n.func.eval(row);
    }
  }
  std::vector<bool> out(outputs_.size());
  for (std::size_t k = 0; k < outputs_.size(); ++k) out[k] = value[outputs_[k]];
  return out;
}

std::vector<SigId> Network::cone_inputs(SigId sig) const {
  std::vector<bool> visited(nodes_.size(), false);
  std::vector<bool> is_cone_input(nodes_.size(), false);
  std::vector<SigId> stack{sig};
  while (!stack.empty()) {
    const SigId s = stack.back();
    stack.pop_back();
    if (visited[s]) continue;
    visited[s] = true;
    const Node& n = nodes_[s];
    if (n.kind == Kind::Input) {
      is_cone_input[s] = true;
    } else {
      for (SigId f : n.fanins) stack.push_back(f);
    }
  }
  std::vector<SigId> result;
  for (SigId pi : inputs_)
    if (is_cone_input[pi]) result.push_back(pi);
  return result;
}

std::optional<TruthTable> Network::cone_function(
    SigId sig, const std::vector<SigId>& input_list) const {
  if (input_list.size() > TruthTable::kMaxVars) return std::nullopt;
  const unsigned n = static_cast<unsigned>(input_list.size());
  std::unordered_map<SigId, unsigned> input_pos;
  for (unsigned i = 0; i < n; ++i) input_pos[input_list[i]] = i;

  // Compute global truth tables bottom-up for the cone of `sig`.
  std::unordered_map<SigId, TruthTable> table;
  // Collect cone membership, then walk it in topological order.
  std::vector<bool> in_cone(nodes_.size(), false);
  std::vector<SigId> stack{sig};
  while (!stack.empty()) {
    const SigId s = stack.back();
    stack.pop_back();
    if (in_cone[s]) continue;
    in_cone[s] = true;
    for (SigId f : nodes_[s].fanins) stack.push_back(f);
  }
  for (SigId s : topo_order()) {
    if (!in_cone[s]) continue;
    const Node& node = nodes_[s];
    switch (node.kind) {
      case Kind::Input: {
        auto it = input_pos.find(s);
        if (it == input_pos.end()) return std::nullopt;  // input not listed
        table.emplace(s, TruthTable::var(n, it->second));
        break;
      }
      case Kind::Constant:
        table.emplace(s, TruthTable(n, node.func.eval(0)));
        break;
      case Kind::Logic: {
        const std::size_t fi = node.fanins.size();
        std::vector<const TruthTable*> fts(fi);
        for (std::size_t k = 0; k < fi; ++k)
          fts[k] = &table.at(node.fanins[k]);
        TruthTable t(n);
        if ((std::uint64_t{1} << fi) <= 4096) {
          // Word-parallel composition: for every onset row of the node
          // function, AND the fanin tables in the right phases and OR the
          // resulting mask into the output — 64 rows at a time.
          for (std::uint64_t local = 0; local < (std::uint64_t{1} << fi);
               ++local) {
            if (!node.func.eval(local)) continue;
            for (std::size_t w = 0; w < t.bits().word_count(); ++w) {
              std::uint64_t mask = ~std::uint64_t{0};
              for (std::size_t k = 0; k < fi; ++k) {
                const std::uint64_t fw = fts[k]->bits().word(w);
                mask &= ((local >> k) & 1) ? fw : ~fw;
              }
              if (mask) t.bits().set_word(w, t.bits().word(w) | mask);
            }
          }
        } else {
          for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
            std::uint64_t local = 0;
            for (std::size_t k = 0; k < fi; ++k)
              if (fts[k]->get(row)) local |= std::uint64_t{1} << k;
            t.set(row, node.func.eval(local));
          }
        }
        table.emplace(s, std::move(t));
        break;
      }
    }
  }
  return table.at(sig);
}

std::size_t Network::sweep() {
  // Mark reachable nodes from outputs.
  std::vector<bool> live(nodes_.size(), false);
  std::vector<SigId> stack(outputs_.begin(), outputs_.end());
  while (!stack.empty()) {
    const SigId s = stack.back();
    stack.pop_back();
    if (live[s]) continue;
    live[s] = true;
    for (SigId f : nodes_[s].fanins) stack.push_back(f);
  }
  std::size_t changed = 0;
  for (SigId s = 0; s < nodes_.size(); ++s) {
    if (!live[s] && nodes_[s].kind == Kind::Logic) {
      // Turn dangling logic nodes into zero-fanin constants so they cost
      // nothing downstream (ids stay stable; mapping skips constants).
      nodes_[s].fanins.clear();
      nodes_[s].func = TruthTable(0, false);
      nodes_[s].kind = Kind::Constant;
      ++changed;
    }
  }
  return changed;
}

std::size_t drop_vacuous_fanins(TruthTable& func, std::vector<SigId>& fanins) {
  assert(func.num_vars() == fanins.size());
  const std::vector<unsigned> sup = func.support();
  const std::size_t dropped = fanins.size() - sup.size();
  if (dropped == 0) return 0;
  for (std::size_t i = 0; i < sup.size(); ++i) fanins[i] = fanins[sup[i]];
  fanins.resize(sup.size());
  func = func.permute(sup);
  return dropped;
}

bool structurally_equal(const Network& a, const Network& b) {
  if (a.node_count() != b.node_count() || a.inputs() != b.inputs() ||
      a.outputs() != b.outputs() || a.output_names() != b.output_names())
    return false;
  for (SigId s = 0; s < a.node_count(); ++s) {
    const Network::Node& na = a.node(s);
    const Network::Node& nb = b.node(s);
    if (na.kind != nb.kind || na.name != nb.name || na.fanins != nb.fanins ||
        na.func != nb.func)
      return false;
  }
  return true;
}

}  // namespace imodec
