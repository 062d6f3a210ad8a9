#include "engine/valence.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "runtime/stats.hpp"

namespace lacon {

bool quiescent(LayeredModel& model, StateId x) {
  const StateRef s = model.state(x);
  const ProcessSet failed = model.failed_at(x);
  for (ProcessId i = 0; i < model.n(); ++i) {
    if (failed.contains(i)) continue;
    if (s.decisions[static_cast<std::size_t>(i)] == kUndecided) return false;
  }
  return true;
}

ValenceInfo decided_valences(LayeredModel& model, StateId x) {
  ValenceInfo info;
  const StateRef s = model.state(x);
  const ProcessSet failed = model.failed_at(x);
  for (ProcessId i = 0; i < model.n(); ++i) {
    if (failed.contains(i)) continue;
    const Value d = s.decisions[static_cast<std::size_t>(i)];
    if (d == 0) info.v0 = true;
    if (d == 1) info.v1 = true;
  }
  return info;
}

namespace {

// A memo word: bit 0 present, bit 1 exact, bit 2 v0, bit 3 v1, the
// lookahead from bit 8 up (kMaxHorizon + 1 fits). 0 is "no entry".
constexpr std::uint32_t kPresent = 1, kExact = 2, kV0 = 4, kV1 = 8;
constexpr int kShift = 8;

std::uint32_t pack(int lookahead, const ValenceInfo& info) {
  assert(lookahead >= 0 && lookahead <= ValenceEngine::kMaxHorizon + 1);
  return kPresent | (info.exact ? kExact : 0) | (info.v0 ? kV0 : 0) |
         (info.v1 ? kV1 : 0) | static_cast<std::uint32_t>(lookahead) << kShift;
}

int lookahead_of(std::uint32_t w) { return static_cast<int>(w >> kShift); }

ValenceInfo info_of(std::uint32_t w) {
  return {(w & kV0) != 0, (w & kV1) != 0, (w & kExact) != 0};
}

ValenceEngine::MemoEntry entry_of(StateId x, std::uint32_t w, bool deep) {
  const ValenceInfo info = info_of(w);
  return {x, lookahead_of(w), info.v0, info.v1, info.exact, deep};
}

}  // namespace

ValenceEngine::ValenceEngine(LayeredModel& model, int horizon, Exactness mode,
                             Witness witness)
    : model_(model),
      horizon_(horizon),
      mode_(mode),
      witness_(std::move(witness)),
      log_epoch_(model.log_epoch()) {
  if (horizon < 0 || horizon > kMaxHorizon) {
    throw std::invalid_argument("valence horizon outside [0, kMaxHorizon]");
  }
}

ValenceInfo ValenceEngine::valence(StateId x) {
  if (mode_ == Exactness::kQuiescence) return compute(memo_, x, horizon_);
  const ValenceInfo shallow = compute(memo_, x, horizon_);
  if (shallow.bivalent()) return shallow;  // maximal already
  ValenceInfo deep = compute(memo_deep_, x, horizon_ + 1);
  deep.exact = deep.exact || deep.bivalent() || deep.same_set(shallow);
  return deep;
}

ValenceInfo ValenceEngine::compute(Memo& memo, StateId x, int budget) {
  if (const auto* word = memo.words.try_get(static_cast<std::size_t>(x))) {
    // A bivalent result is maximal; otherwise only reuse results computed
    // with at least the currently requested lookahead.
    const std::uint32_t w = word->load(std::memory_order_acquire);
    if (w != 0 && (info_of(w).bivalent() || lookahead_of(w) >= budget)) {
      return info_of(w);
    }
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);

  ValenceInfo info = witness_ ? witness_(x) : decided_valences(model_, x);
  if (info.bivalent() || quiescent(model_, x)) {
    info.exact = true;
    memoize(memo, x, budget, info);
    return info;
  }
  if (budget == 0) {
    info.exact = false;
    memoize(memo, x, 0, info);
    return info;
  }

  info.exact = true;
  for (StateId y : model_.layer(x)) {
    const ValenceInfo sub = compute(memo, y, budget - 1);
    info.v0 = info.v0 || sub.v0;
    info.v1 = info.v1 || sub.v1;
    info.exact = info.exact && sub.exact;
    if (info.bivalent()) {
      info.exact = true;  // the valence set cannot grow further
      break;
    }
  }
  memoize(memo, x, budget, info);
  return info;
}

void ValenceEngine::memoize(Memo& memo, StateId x, int budget,
                            const ValenceInfo& info) {
  if (merge(memo.words.slot(static_cast<std::size_t>(x)), budget, info) &&
      model_.records_unpersisted()) {
    queue(memo, x);
  }
}

void ValenceEngine::queue(Memo& memo, StateId x) {
  std::lock_guard<std::mutex> lock(memo.mu);
  memo.unpersisted.push_back(x);
}

bool ValenceEngine::merge(std::atomic<std::uint32_t>& word, int budget,
                          const ValenceInfo& info) {
  const std::uint32_t want = pack(budget, info);
  std::uint32_t cur = word.load(std::memory_order_acquire);
  do {
    if (cur != 0 && !info.bivalent() &&
        (info_of(cur).bivalent() || budget < lookahead_of(cur))) {
      return false;
    }
    if (cur == want) return false;
  } while (!word.compare_exchange_weak(cur, want, std::memory_order_acq_rel,
                                       std::memory_order_acquire));
  return true;
}

guard::Partial<std::vector<ValenceInfo>> ValenceEngine::classify_all(
    const std::vector<StateId>& X, const guard::Guard& g) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("valence.classify_time"));
  guard::Partial<std::vector<ValenceInfo>> out;
  out.value.resize(X.size());
  out.completed = guard::guarded_for(
      g, X.size(), [&](std::size_t i) { out.value[i] = valence(X[i]); });
  out.value.resize(out.completed);
  out.truncation = g.reason();
  stats.counter("valence.states_classified").add(out.completed);
  return out;
}

std::vector<ValenceInfo> ValenceEngine::classify_all(
    const std::vector<StateId>& X) {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  guard::Partial<std::vector<ValenceInfo>> partial =
      classify_all(X, scoped.get());
  // Pad a truncated classification back to X.size(): positional consumers
  // (valence_graph) index infos[i] across all of X, and a default entry —
  // inexact, no witnessed valences — is the honest "don't know".
  partial.value.resize(X.size());
  return std::move(partial.value);
}

void ValenceEngine::scan(const Memo& memo, bool deep, std::uint64_t from,
                         std::vector<MemoEntry>* out) const {
  // Memo entries are keyed by interned states, so a scan of the arena's ids
  // finds them all, in id order.
  for (std::uint64_t id = from; id < model_.num_states(); ++id) {
    const auto* word = memo.words.try_get(static_cast<std::size_t>(id));
    const std::uint32_t w =
        word == nullptr ? 0 : word->load(std::memory_order_acquire);
    if (w != 0) out->push_back(entry_of(static_cast<StateId>(id), w, deep));
  }
}

std::vector<ValenceEngine::MemoEntry> ValenceEngine::export_memo() {
  std::vector<MemoEntry> out;
  scan(memo_, false, 0, &out);
  if (mode_ == Exactness::kConvergence) scan(memo_deep_, true, 0, &out);
  return out;
}

void ValenceEngine::import_memo(const std::vector<MemoEntry>& entries) {
  for (const MemoEntry& e : entries) {
    if (e.deep && mode_ != Exactness::kConvergence) continue;
    Memo& memo = e.deep ? memo_deep_ : memo_;
    merge(memo.words.slot(static_cast<std::size_t>(e.x)), e.lookahead,
          ValenceInfo{e.v0, e.v1, e.exact});
  }
}

std::vector<ValenceEngine::MemoEntry> ValenceEngine::drain_memo(
    std::uint64_t bound) {
  if (log_epoch_ != model_.log_epoch()) {
    queue_from(0);
    log_epoch_ = model_.log_epoch();
  }
  std::vector<MemoEntry> out;
  const auto drain = [&out, bound](Memo& memo, bool deep) {
    std::lock_guard<std::mutex> lock(memo.mu);
    std::vector<StateId>& queue = memo.unpersisted;
    std::sort(queue.begin(), queue.end());
    queue.erase(std::unique(queue.begin(), queue.end()), queue.end());
    // Sorted, so the entries below the bound are a prefix.
    const auto end = std::partition_point(
        queue.begin(), queue.end(), [bound](StateId x) { return x < bound; });
    for (auto it = queue.begin(); it != end; ++it) {
      // Queued only after a CAS made the word present.
      out.push_back(entry_of(
          *it, memo.words[*it].load(std::memory_order_acquire), deep));
    }
    queue.erase(queue.begin(), end);
  };
  drain(memo_, false);
  if (mode_ == Exactness::kConvergence) drain(memo_deep_, true);
  return out;
}

void ValenceEngine::requeue_memo(const std::vector<MemoEntry>& entries) {
  for (const MemoEntry& e : entries) queue(e.deep ? memo_deep_ : memo_, e.x);
}

void ValenceEngine::sync_memo(std::uint64_t num_states) {
  log_epoch_ = model_.log_epoch();
  // Memo entries are keyed by interned states, so none can lie at or past a
  // count that covers the whole arena.
  if (num_states < model_.num_states()) queue_from(num_states);
}

void ValenceEngine::queue_from(std::uint64_t bound) {
  std::vector<MemoEntry> present;
  scan(memo_, false, bound, &present);
  scan(memo_deep_, true, bound, &present);
  requeue_memo(present);
}

bool ValenceEngine::shared_valence(StateId x, StateId y) {
  const ValenceInfo a = valence(x);
  const ValenceInfo b = valence(y);
  return (a.v0 && b.v0) || (a.v1 && b.v1);
}

Graph ValenceEngine::valence_graph(const std::vector<StateId>& X) {
  // Over a fixed classification, ~v is the union of two cliques: the states
  // that can reach a 0-decision and those that can reach a 1-decision. Both
  // member lists are ascending in X order, so emitting each clique's pairs
  // directly, then sorting and deduplicating (bivalent states sit in both
  // cliques), reproduces the lexicographic edge sequence of the old
  // O(|X|^2) relation sweep without evaluating a single pair predicate.
  const std::vector<ValenceInfo> infos = classify_all(X);
  std::vector<Graph::Vertex> v0, v1;
  for (std::size_t i = 0; i < X.size(); ++i) {
    if (infos[i].v0) v0.push_back(static_cast<Graph::Vertex>(i));
    if (infos[i].v1) v1.push_back(static_cast<Graph::Vertex>(i));
  }
  std::vector<Graph::Edge> edges;
  edges.reserve((v0.size() * (v0.size() + 1) +
                 v1.size() * (v1.size() + 1)) / 2);
  for (const auto& clique : {v0, v1}) {
    for (std::size_t a = 0; a < clique.size(); ++a) {
      for (std::size_t b = a + 1; b < clique.size(); ++b) {
        edges.emplace_back(clique[a], clique[b]);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  runtime::Stats::global().counter("valence.clique_edges").add(edges.size());
  return Graph::from_sorted_edges(X.size(), std::move(edges));
}

bool ValenceEngine::valence_connected(const std::vector<StateId>& X) {
  return valence_graph(X).connected();
}

std::optional<StateId> ValenceEngine::find_bivalent(
    const std::vector<StateId>& X) {
  for (StateId x : X) {
    if (valence(x).bivalent()) return x;
  }
  return std::nullopt;
}

}  // namespace lacon
