#pragma once
// Multi-level combinational Boolean network.
//
// Nodes are primary inputs, constants, or logic nodes carrying a truth table
// over their fanins (a k-LUT-style network with unbounded k up to
// TruthTable::kMaxVars). This is the substrate both for the benchmark
// generators and for the decomposition / mapping flows: decomposition
// replaces a wide node by d-nodes and g-nodes, mapping packs bounded nodes
// into CLBs.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/truthtable.hpp"

namespace imodec {

using SigId = std::uint32_t;
inline constexpr SigId kInvalidSig = 0xffffffffu;

class Network {
 public:
  enum class Kind : std::uint8_t { Input, Constant, Logic };

  struct Node {
    Kind kind;
    std::string name;            // may be empty for internal nodes
    std::vector<SigId> fanins;   // empty for Input/Constant
    TruthTable func;             // over fanins (Logic); constant value for
                                 // Constant is func over 0 vars
  };

  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  SigId add_input(const std::string& name);
  SigId add_constant(bool value);
  /// Add a logic node computing `func` over `fanins` (func.num_vars() must
  /// equal fanins.size()).
  SigId add_node(const std::vector<SigId>& fanins, TruthTable func,
                 const std::string& name = "");

  void add_output(SigId sig, const std::string& name);

  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(SigId s) const { return nodes_[s]; }
  Node& node(SigId s) { return nodes_[s]; }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  const std::vector<SigId>& inputs() const { return inputs_; }
  const std::vector<SigId>& outputs() const { return outputs_; }
  const std::vector<std::string>& output_names() const {
    return output_names_;
  }
  void set_output_sig(std::size_t idx, SigId s) { outputs_[idx] = s; }

  /// Signal by name (inputs and named nodes). kInvalidSig if absent.
  SigId find(const std::string& name) const;

  /// Topological order over all nodes (inputs first).
  std::vector<SigId> topo_order() const;

  /// Number of Logic nodes.
  std::size_t logic_count() const;
  /// Maximum logic level (inputs at level 0).
  unsigned depth() const;
  /// Largest fanin count over logic nodes.
  unsigned max_fanin() const;

  /// Evaluate all outputs for one input assignment (indexed like inputs()).
  std::vector<bool> eval(const std::vector<bool>& input_values) const;
  /// Same, with a precomputed topo_order() (hot loops: equivalence checks).
  std::vector<bool> eval_ordered(const std::vector<bool>& input_values,
                                 const std::vector<SigId>& order) const;

  /// Transitive-fanin primary inputs of `sig`, in input order.
  std::vector<SigId> cone_inputs(SigId sig) const;

  /// Global function of `sig` over the given ordered input list (each cone
  /// input must appear). nullopt if the list exceeds TruthTable::kMaxVars.
  std::optional<TruthTable> cone_function(SigId sig,
                                          const std::vector<SigId>& inputs) const;

  /// Remove dangling logic nodes and propagate constants / single-input
  /// identity nodes. Returns the number of nodes removed or simplified.
  std::size_t sweep();

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<SigId> inputs_;
  std::vector<SigId> outputs_;
  std::vector<std::string> output_names_;
  std::unordered_map<std::string, SigId> by_name_;
};

/// Narrow `func` to its support and drop the matching entries of `fanins`
/// (fanins[i] feeds variable i). Returns how many fanins were dropped.
std::size_t drop_vacuous_fanins(TruthTable& func, std::vector<SigId>& fanins);

/// Bit-identical structural comparison: same nodes (kind, name, fanins,
/// function), inputs, outputs, and output names, in the same order. The
/// network name is ignored. This is the determinism contract the parallel
/// runtime promises (DESIGN.md §9) and the differential fuzzer enforces —
/// far stronger than functional equivalence.
bool structurally_equal(const Network& a, const Network& b);

}  // namespace imodec
