#include "core/model.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>

#include "runtime/stats.hpp"
#include "util/simd.hpp"

namespace lacon {

std::vector<std::vector<Value>> all_binary_inputs(int n) {
  std::vector<std::vector<Value>> out;
  const std::uint64_t count = 1ULL << n;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t bits = 0; bits < count; ++bits) {
    std::vector<Value> inputs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      inputs[static_cast<std::size_t>(i)] = static_cast<Value>((bits >> i) & 1);
    }
    out.push_back(std::move(inputs));
  }
  return out;
}

LayeredModel::LayeredModel(int n, const DecisionRule& rule,
                           std::vector<std::vector<Value>> initial_inputs)
    : n_(n),
      rule_(&rule),
      initial_inputs_(std::move(initial_inputs)),
      views_(n),
      sym_folds_(&runtime::Stats::global().counter("arena.sym_folds")),
      layer_time_(&runtime::Stats::global().timer("model.layer_time")) {
  assert(n >= 2);
  if (initial_inputs_.empty()) initial_inputs_ = all_binary_inputs(n);
#ifndef NDEBUG
  for (const auto& inputs : initial_inputs_) {
    assert(static_cast<int>(inputs.size()) == n);
  }
#endif
}

LayeredModel::~LayeredModel() {
  // Fingerprint rows and layers are plain heap objects hung off atomic
  // slots; analysis has quiesced by destruction time.
  const std::size_t count = arena_.size();
  for (std::size_t i = 0; i < count; ++i) {
    delete[] cached_fingerprint_row(static_cast<StateId>(i));
    delete cached_layer(static_cast<StateId>(i));
  }
}

StateId LayeredModel::restore_state(const StateRef& s, std::uint64_t hash) {
  return arena_.restore(s, hash);
}

const std::uint64_t* LayeredModel::fingerprint_row(StateId x) {
  auto& slot = fp_memo_.slot(static_cast<std::size_t>(x));
  if (const std::uint64_t* cached = slot.load(std::memory_order_acquire)) {
    return cached;
  }
  auto* mine = new std::uint64_t[static_cast<std::size_t>(n_)];
  fingerprint_row_into(x, mine);
  const std::uint64_t* expected = nullptr;
  if (slot.compare_exchange_strong(expected, mine, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    if (records_unpersisted()) {
      std::lock_guard<std::mutex> lock(unpersisted_mu_);
      unpersisted_rows_.push_back(x);
    }
    return mine;
  }
  delete[] mine;
  return expected;
}

const std::uint64_t* LayeredModel::cached_fingerprint_row(StateId x) const {
  const auto* slot = fp_memo_.try_get(static_cast<std::size_t>(x));
  if (slot == nullptr) return nullptr;
  return slot->load(std::memory_order_acquire);
}

void LayeredModel::restore_fingerprint_row(StateId x,
                                           const std::uint64_t* row) {
  auto& slot = fp_memo_.slot(static_cast<std::size_t>(x));
  auto* mine = new std::uint64_t[static_cast<std::size_t>(n_)];
  std::copy(row, row + n_, mine);
  const std::uint64_t* expected = nullptr;
  if (!slot.compare_exchange_strong(expected, mine,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    delete[] mine;
  }
}

const std::vector<StateId>* LayeredModel::cached_layer(StateId x) const {
  const auto* slot = layer_memo_.try_get(static_cast<std::size_t>(x));
  if (slot == nullptr) return nullptr;
  return slot->load(std::memory_order_acquire);
}

std::vector<std::pair<StateId, std::vector<StateId>>>
LayeredModel::export_layer_cache() {
  std::vector<std::pair<StateId, std::vector<StateId>>> out;
  const std::size_t live = arena_.size();
  for (std::size_t id = 0; id < live; ++id) {
    const auto x = static_cast<StateId>(id);
    if (const std::vector<StateId>* succ = cached_layer(x)) {
      out.emplace_back(x, *succ);
    }
  }
  return out;
}

void LayeredModel::import_layer_cache(
    std::vector<std::pair<StateId, std::vector<StateId>>> entries) {
  for (auto& [x, succ] : entries) {
    auto* mine = new std::vector<StateId>(std::move(succ));
    const std::vector<StateId>* expected = nullptr;
    if (!layer_memo_.slot(static_cast<std::size_t>(x))
             .compare_exchange_strong(expected, mine)) {
      delete mine;  // already published; equal by construction
    }
  }
}

void LayeredModel::begin_log_epoch(std::uint64_t num_states) {
  log_epoch_.fetch_add(1);
  // Queues what a snapshot of the first `num_states` states lacks: a layer
  // entry at or past the count or reaching past it, and a fingerprint row
  // at or past it. Every cached entry refers to interned states only, so
  // when the disk holds all of them there is nothing to walk.
  const std::uint64_t live = arena_.size();
  if (num_states >= live) return;
  const auto held = [num_states](std::uint64_t id) { return id < num_states; };
  std::lock_guard<std::mutex> lock(unpersisted_mu_);
  for (std::uint64_t id = 0; id < live; ++id) {
    const auto x = static_cast<StateId>(id);
    const std::vector<StateId>* succ = cached_layer(x);
    if (succ != nullptr &&
        !(held(id) && std::all_of(succ->begin(), succ->end(), held))) {
      unpersisted_layers_.push_back(x);
    }
    if (!held(id) && cached_fingerprint_row(x) != nullptr) {
      unpersisted_rows_.push_back(x);
    }
  }
}

LayeredModel::UnpersistedCaches LayeredModel::drain_unpersisted(
    std::uint64_t bound) {
  const auto sort_unique = [](std::vector<StateId>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };
  const auto below = [bound](StateId y) { return y < bound; };
  UnpersistedCaches out;
  std::lock_guard<std::mutex> lock(unpersisted_mu_);
  sort_unique(unpersisted_layers_);
  std::size_t kept = 0;
  for (StateId x : unpersisted_layers_) {
    // Queued only after its layer was published.
    const std::vector<StateId>& succ = *cached_layer(x);
    if (below(x) && std::all_of(succ.begin(), succ.end(), below)) {
      out.layers.emplace_back(x, succ);
    } else {
      unpersisted_layers_[kept++] = x;
    }
  }
  unpersisted_layers_.resize(kept);
  // Sorted, so the rows below the bound are a prefix.
  sort_unique(unpersisted_rows_);
  const auto end = std::partition_point(unpersisted_rows_.begin(),
                                        unpersisted_rows_.end(), below);
  out.fingerprint_rows.assign(unpersisted_rows_.begin(), end);
  unpersisted_rows_.erase(unpersisted_rows_.begin(), end);
  return out;
}

void LayeredModel::requeue(const UnpersistedCaches& drained) {
  std::lock_guard<std::mutex> lock(unpersisted_mu_);
  for (const auto& [x, succ] : drained.layers) {
    unpersisted_layers_.push_back(x);
  }
  unpersisted_rows_.insert(unpersisted_rows_.end(),
                           drained.fingerprint_rows.begin(),
                           drained.fingerprint_rows.end());
}

const std::vector<StateId>& LayeredModel::initial_states() {
  std::call_once(initial_once_, [this] {
    for (const auto& inputs : initial_inputs_) {
      GlobalState s;
      s.env = initial_env();
      s.locals.reserve(static_cast<std::size_t>(n_));
      for (ProcessId i = 0; i < n_; ++i) {
        s.locals.push_back(
            views_.initial(i, inputs[static_cast<std::size_t>(i)]));
      }
      // No process has decided initially: d_i = ⊥ in Con_0 by definition.
      s.decisions.assign(static_cast<std::size_t>(n_), kUndecided);
      initial_states_.push_back(intern_canonical(s));
    }
    // Keep them sorted for deterministic iteration, and deduplicate: under
    // the symmetry quotient, orbit-equivalent input assignments fold onto
    // one canonical initial state.
    std::sort(initial_states_.begin(), initial_states_.end());
    initial_states_.erase(
        std::unique(initial_states_.begin(), initial_states_.end()),
        initial_states_.end());
  });
  return initial_states_;
}

const std::vector<StateId>& LayeredModel::layer(StateId x) {
  auto& slot = layer_memo_.slot(static_cast<std::size_t>(x));
  if (const auto* cached = slot.load(std::memory_order_acquire)) return *cached;
  runtime::ScopedTimer timer(*layer_time_);
  // A racing computation of the same layer produces the same vector
  // (interning is content-addressed); the first published copy wins.
  auto* mine = new std::vector<StateId>(compute_layer(x));
  std::sort(mine->begin(), mine->end());
  mine->erase(std::unique(mine->begin(), mine->end()), mine->end());
  assert(!mine->empty() && "a successor function never returns an empty set");
  const std::vector<StateId>* expected = nullptr;
  if (!slot.compare_exchange_strong(expected, mine, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    delete mine;
    return *expected;
  }
  if (records_unpersisted()) {
    std::lock_guard<std::mutex> lock(unpersisted_mu_);
    unpersisted_layers_.push_back(x);
  }
  return *mine;
}

ProcessSet LayeredModel::failed_at(StateId) const { return {}; }

void LayeredModel::fingerprint_row_into(StateId x, std::uint64_t* out) const {
  const StateRef s = state(x);
  const std::uint64_t env_hash = hash_range(s.env, 0x73696d666970ULL);
  simd::fingerprint_lanes(env_hash, s.locals.data(), s.decisions.data(),
                          static_cast<std::size_t>(n_), out);
}

std::string LayeredModel::env_to_string(StateId x) const {
  const StateRef s = state(x);
  std::string out;
  for (std::int64_t w : s.env) {
    out += std::to_string(w);
    out += ',';
  }
  return out;
}

Value LayeredModel::updated_decision(ProcessId i, Value current,
                                     ViewId new_view) {
  if (current != kUndecided) return current;  // d_i is write-once
  const std::optional<Value> d = rule_->decide(i, new_view, views_);
  return d.value_or(kUndecided);
}

void LayeredModel::sym_env_key(const StateRef& s, sym::Relabeling&,
                               std::vector<std::uint64_t>* out) const {
  // Default: the environment carries no process identity and no interned
  // ids, so its words are their own relabeled key. Models with
  // process-indexed or ViewId-bearing environments override.
  for (const std::int64_t w : s.env) {
    out->push_back(static_cast<std::uint64_t>(w));
  }
}

std::vector<std::int64_t> LayeredModel::sym_permute_env(
    const StateRef& s, sym::Relabeling&) const {
  return {s.env.begin(), s.env.end()};
}

bool LayeredModel::inputs_permutation_closed() const {
  // Adjacent transpositions generate S_n, so closure under them is closure
  // under every permutation.
  const std::set<std::vector<Value>> inputs(initial_inputs_.begin(),
                                            initial_inputs_.end());
  for (const auto& assignment : inputs) {
    std::vector<Value> swapped = assignment;
    for (int i = 0; i + 1 < n_; ++i) {
      std::swap(swapped[static_cast<std::size_t>(i)],
                swapped[static_cast<std::size_t>(i + 1)]);
      if (!inputs.contains(swapped)) return false;
      std::swap(swapped[static_cast<std::size_t>(i)],
                swapped[static_cast<std::size_t>(i + 1)]);
    }
  }
  return true;
}

bool LayeredModel::sym_quotient_active() {
  std::call_once(sym_once_, [this] {
    sym_active_ = sym::enabled() &&
                  symmetry() == sym::SymmetryClass::kFull && n_ <= 15 &&
                  inputs_permutation_closed();
    if (sym_active_) canon_ = std::make_unique<sym::Canonicalizer>(views_, n_);
  });
  return sym_active_;
}

StateId LayeredModel::intern_canonical(GlobalState& s) {
  if (!sym_quotient_active()) return arena_.intern(s);
  bool folded = false;
  const std::uint64_t stab = canon_->canonicalize(*this, &s, &folded);
  if (folded) sym_folds_->increment();
  const StateId id = arena_.intern(s);
  auto& weight = orbit_weights_.slot(static_cast<std::size_t>(id));
  if (weight.load(std::memory_order_relaxed) == 0) {
    weight.store(sym::factorial(n_) / stab, std::memory_order_relaxed);
  }
  return id;
}

std::uint64_t LayeredModel::orbit_weight(StateId x) {
  if (!sym_quotient_active()) return 1;
  auto& slot = orbit_weights_.slot(static_cast<std::size_t>(x));
  const std::uint64_t cached = slot.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  // Unset: x entered the arena without passing through intern_canonical
  // (snapshot restore). Its content is already canonical, so
  // re-canonicalizing recovers the exact stabilizer size; racing
  // computations agree.
  const StateRef ref = state(x);
  GlobalState copy{{ref.env.begin(), ref.env.end()},
                   {ref.locals.begin(), ref.locals.end()},
                   {ref.decisions.begin(), ref.decisions.end()}};
  bool folded = false;
  const std::uint64_t stab = canon_->canonicalize(*this, &copy, &folded);
  assert(!folded && "states in a quotiented arena are orbit representatives");
  const std::uint64_t weight = sym::factorial(n_) / stab;
  slot.store(weight, std::memory_order_relaxed);
  return weight;
}

std::vector<StateId> LayeredModel::unfold_orbit(StateId x) {
  if (!sym_quotient_active()) return {x};
  // Closure under adjacent transpositions (they generate S_n): each member
  // is probed against each of the n-1 transpositions, so the cost is
  // orbit-linear instead of factorial. Interns bypass canonicalization —
  // the whole point is materializing the non-canonical members.
  std::vector<StateId> members = {x};
  std::set<StateId> seen = {x};
  Permutation swap_adj(static_cast<std::size_t>(n_));
  for (std::size_t frontier = 0; frontier < members.size(); ++frontier) {
    const StateRef ref = state(members[frontier]);
    for (int i = 0; i + 1 < n_; ++i) {
      std::iota(swap_adj.begin(), swap_adj.end(), 0);
      std::swap(swap_adj[static_cast<std::size_t>(i)],
                swap_adj[static_cast<std::size_t>(i + 1)]);
      const StateId member =
          arena_.intern(canon_->permute(*this, ref, swap_adj));
      if (seen.insert(member).second) members.push_back(member);
    }
  }
  std::sort(members.begin(), members.end());
  assert(members.size() == orbit_weight(x));
  return members;
}

}  // namespace lacon
