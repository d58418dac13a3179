#pragma once
// RAII handle over Manager nodes — the public face of the BDD package.
//
// A Bdd owns one external reference on its node; copies/assignments adjust
// reference counts, so algorithm code can treat Bdds as plain values and the
// garbage collector sees exactly the live roots.

#include <cassert>
#include <utility>
#include <vector>

#include "bdd/manager.hpp"

namespace imodec::bdd {

class Bdd {
 public:
  Bdd() = default;  // null handle
  Bdd(Manager* mgr, NodeId node) : mgr_(mgr), node_(node) {
    if (mgr_) mgr_->ref(node_);
  }
  Bdd(const Bdd& o) : mgr_(o.mgr_), node_(o.node_) {
    if (mgr_) mgr_->ref(node_);
  }
  Bdd(Bdd&& o) noexcept : mgr_(o.mgr_), node_(o.node_) { o.mgr_ = nullptr; }
  Bdd& operator=(const Bdd& o) {
    if (this != &o) {
      if (o.mgr_) o.mgr_->ref(o.node_);
      release();
      mgr_ = o.mgr_;
      node_ = o.node_;
    }
    return *this;
  }
  Bdd& operator=(Bdd&& o) noexcept {
    if (this != &o) {
      release();
      mgr_ = o.mgr_;
      node_ = o.node_;
      o.mgr_ = nullptr;
    }
    return *this;
  }
  ~Bdd() { release(); }

  bool valid() const { return mgr_ != nullptr; }
  Manager* manager() const { return mgr_; }
  NodeId node() const { return node_; }

  bool is_zero() const { return node_ == kFalse; }
  bool is_one() const { return node_ == kTrue; }
  bool is_terminal() const { return node_ <= kTrue; }

  // Structural equality is functional equality for ROBDDs in one manager.
  bool operator==(const Bdd& o) const {
    return mgr_ == o.mgr_ && node_ == o.node_;
  }

  Bdd operator&(const Bdd& o) const {
    return wrap(mgr_->apply_and(node_, o.node_));
  }
  Bdd operator|(const Bdd& o) const {
    return wrap(mgr_->apply_or(node_, o.node_));
  }
  Bdd operator^(const Bdd& o) const {
    return wrap(mgr_->apply_xor(node_, o.node_));
  }
  Bdd operator~() const { return wrap(mgr_->apply_not(node_)); }
  Bdd& operator&=(const Bdd& o) { return *this = *this & o; }
  Bdd& operator|=(const Bdd& o) { return *this = *this | o; }
  Bdd& operator^=(const Bdd& o) { return *this = *this ^ o; }

  Bdd ite(const Bdd& g, const Bdd& h) const {
    return wrap(mgr_->ite(node_, g.node_, h.node_));
  }
  Bdd cofactor(unsigned v, bool value) const {
    return wrap(mgr_->cofactor(node_, v, value));
  }

  double sat_count() const { return mgr_->sat_count(node_); }
  std::vector<unsigned> support() const { return mgr_->support(node_); }
  bool eval(const std::vector<bool>& assignment) const {
    return mgr_->eval(node_, assignment);
  }
  std::size_t dag_size() const { return mgr_->dag_size(node_); }

  static Bdd zero(Manager& m) { return Bdd(&m, kFalse); }
  static Bdd one(Manager& m) { return Bdd(&m, kTrue); }
  static Bdd var(Manager& m, unsigned v) { return Bdd(&m, m.var(v)); }
  static Bdd nvar(Manager& m, unsigned v) { return Bdd(&m, m.nvar(v)); }
  static Bdd literal(Manager& m, unsigned v, bool phase) {
    return Bdd(&m, m.literal(v, phase));
  }
  static Bdd cube(Manager& m, const std::vector<unsigned>& vars,
                  const std::vector<bool>& phases) {
    return Bdd(&m, m.cube(vars, phases));
  }

 private:
  Bdd wrap(NodeId n) const { return Bdd(mgr_, n); }
  void release() {
    if (mgr_) mgr_->deref(node_);
    mgr_ = nullptr;
  }

  Manager* mgr_ = nullptr;
  NodeId node_ = kFalse;
};

}  // namespace imodec::bdd
