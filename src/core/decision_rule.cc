#include "core/decision_rule.hpp"

#include <algorithm>

namespace lacon {
namespace {

class NeverDecide final : public DecisionRule {
 public:
  std::string name() const override { return "never-decide"; }
  std::optional<Value> decide(ProcessId, ViewId, ViewArena&) const override {
    return std::nullopt;
  }
};

// Smallest known input in the view, or nullopt if none known (cannot happen:
// a view always knows its owner's input).
std::optional<Value> min_known(ProcessId, ViewId view, ViewArena& arena) {
  std::optional<Value> best;
  for (Value v : arena.known_inputs(view)) {
    if (v == kUnknownInput) continue;
    if (!best || v < *best) best = v;
  }
  return best;
}

class MinAfterRound final : public DecisionRule {
 public:
  explicit MinAfterRound(int round) : round_(round) {}
  std::string name() const override {
    return "min-after-round-" + std::to_string(round_);
  }
  std::optional<Value> decide(ProcessId i, ViewId view,
                              ViewArena& arena) const override {
    if (arena.node(view).round < round_) return std::nullopt;
    return min_known(i, view, arena);
  }

 private:
  int round_;
};

class OwnInputAfterRound final : public DecisionRule {
 public:
  explicit OwnInputAfterRound(int round) : round_(round) {}
  std::string name() const override {
    return "own-input-after-round-" + std::to_string(round_);
  }
  std::optional<Value> decide(ProcessId, ViewId view,
                              ViewArena& arena) const override {
    const ViewRef node = arena.node(view);
    if (node.round < round_) return std::nullopt;
    return node.input;
  }

 private:
  int round_;
};

class UnanimityThenMin final : public DecisionRule {
 public:
  explicit UnanimityThenMin(int round) : round_(round) {}
  std::string name() const override {
    return "unanimity-then-min-" + std::to_string(round_);
  }
  std::optional<Value> decide(ProcessId i, ViewId view,
                              ViewArena& arena) const override {
    const std::span<const Value> inputs = arena.known_inputs(view);
    const bool complete =
        std::none_of(inputs.begin(), inputs.end(),
                     [](Value v) { return v == kUnknownInput; });
    if (complete &&
        std::all_of(inputs.begin(), inputs.end(),
                    [&](Value v) { return v == inputs.front(); })) {
      return inputs.front();
    }
    if (arena.node(view).round >= round_) return min_known(i, view, arena);
    return std::nullopt;
  }

 private:
  int round_;
};

class MajorityAfterRound final : public DecisionRule {
 public:
  explicit MajorityAfterRound(int round) : round_(round) {}
  std::string name() const override {
    return "majority-after-round-" + std::to_string(round_);
  }
  std::optional<Value> decide(ProcessId, ViewId view,
                              ViewArena& arena) const override {
    if (arena.node(view).round < round_) return std::nullopt;
    int zeros = 0;
    int ones = 0;
    for (Value v : arena.known_inputs(view)) {
      if (v == 0) ++zeros;
      if (v == 1) ++ones;
    }
    return ones > zeros ? 1 : 0;
  }

 private:
  int round_;
};

class MinWhenAllKnown final : public DecisionRule {
 public:
  explicit MinWhenAllKnown(int round) : round_(round) {}
  std::string name() const override {
    return "min-when-all-known-" + std::to_string(round_);
  }
  std::optional<Value> decide(ProcessId i, ViewId view,
                              ViewArena& arena) const override {
    if (arena.node(view).round < round_) return std::nullopt;
    const std::span<const Value> inputs = arena.known_inputs(view);
    const bool complete =
        std::none_of(inputs.begin(), inputs.end(),
                     [](Value v) { return v == kUnknownInput; });
    if (!complete) return std::nullopt;
    return min_known(i, view, arena);
  }

 private:
  int round_;
};

}  // namespace

std::unique_ptr<DecisionRule> never_decide() {
  return std::make_unique<NeverDecide>();
}

std::unique_ptr<DecisionRule> min_after_round(int round) {
  return std::make_unique<MinAfterRound>(round);
}

std::unique_ptr<DecisionRule> own_input_after_round(int round) {
  return std::make_unique<OwnInputAfterRound>(round);
}

std::unique_ptr<DecisionRule> unanimity_then_min(int round) {
  return std::make_unique<UnanimityThenMin>(round);
}

std::unique_ptr<DecisionRule> majority_after_round(int round) {
  return std::make_unique<MajorityAfterRound>(round);
}

std::unique_ptr<DecisionRule> min_when_all_known(int round) {
  return std::make_unique<MinWhenAllKnown>(round);
}

}  // namespace lacon
