#include "analysis/reports.hpp"

#include "runtime/guard.hpp"
#include "runtime/stats.hpp"
#include "util/table.hpp"

#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/sharedmem/sharedmem_model.hpp"
#include "models/synchronous/sync_model.hpp"

namespace lacon {

std::string model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMobile:
      return "M^mf/S1";
    case ModelKind::kSharedMem:
      return "M^rw/S^rw";
    case ModelKind::kMsgPass:
      return "AsyncMP/S^per";
    case ModelKind::kSync:
      return "Sync/S^t";
  }
  return "?";
}

std::unique_ptr<LayeredModel> make_model(
    ModelKind kind, int n, int t, const DecisionRule& rule,
    std::vector<std::vector<Value>> initial_inputs) {
  switch (kind) {
    case ModelKind::kMobile:
      return std::make_unique<MobileModel>(n, rule, std::move(initial_inputs));
    case ModelKind::kSharedMem:
      return std::make_unique<SharedMemModel>(n, rule,
                                              std::move(initial_inputs));
    case ModelKind::kMsgPass:
      return std::make_unique<MsgPassModel>(n, rule,
                                            std::move(initial_inputs));
    case ModelKind::kSync:
      return std::make_unique<SyncModel>(n, t, rule,
                                         std::move(initial_inputs));
  }
  return nullptr;
}

Exactness default_exactness(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMobile:
    case ModelKind::kSync:
      return Exactness::kQuiescence;
    case ModelKind::kSharedMem:
    case ModelKind::kMsgPass:
      return Exactness::kConvergence;
  }
  return Exactness::kQuiescence;
}

bool layers_similarity_connected(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMobile:
    case ModelKind::kSync:
      return true;
    case ModelKind::kSharedMem:
    case ModelKind::kMsgPass:
      return false;
  }
  return false;
}

std::vector<NamedCheck> run_lemma_suite(ModelKind kind, int n, int t,
                                        int depth, int horizon,
                                        const DecisionRule& rule) {
  std::vector<NamedCheck> out;
  const Exactness mode = default_exactness(kind);
  auto model = make_model(kind, n, t, rule);

  const int effective_t = (kind == ModelKind::kSync) ? t : 1;
  if (kind == ModelKind::kSync) {
    // min-after-round-(t+1) satisfies agreement here, so Lemmas 3.1/3.2
    // apply to the model as built.
    out.push_back({"Lemma 3.1 (bivalent => n-t undecided)",
                   check_lemma_3_1(*model, effective_t, depth, horizon,
                                   mode)});
  } else {
    // No rule satisfies all three consensus requirements in these models;
    // Lemmas 3.1/3.2 hypothesize agreement, so check them on a second model
    // running the agreement-safe rule, and check the contrapositive of
    // Lemma 3.2 (bivalent + decided => agreement violation reachable) on
    // the original rule.
    static const auto safe_rule = min_when_all_known(1);
    auto safe_model = make_model(kind, n, t, *safe_rule);
    out.push_back({"Lemma 3.1 (agreement-safe rule)",
                   check_lemma_3_1(*safe_model, effective_t, depth, horizon,
                                   mode)});
    out.push_back({"Lemma 3.2 (agreement-safe rule)",
                   check_lemma_3_2(*safe_model, depth, horizon, mode)});
    out.push_back(
        {"Lemma 3.2 contrapositive (bivalent+decided => violation)",
         check_lemma_3_2_contrapositive(*model, depth, horizon, mode)});
  }
  out.push_back({"Lemma 3.3 (~s => ~v)",
                 check_lemma_3_3(*model, depth, horizon, mode)});
  out.push_back({"Lemma 3.6 (Con_0 connected, bivalent initial)",
                 check_lemma_3_6(*model, horizon, mode)});

  std::function<bool(StateId)> filter;
  if (kind == ModelKind::kSync) {
    // The paper claims layer valence connectivity only while fewer than t-1
    // processes have failed (proof of Lemma 6.1).
    LayeredModel* raw = model.get();
    filter = [raw, t](StateId x) { return raw->failed_at(x).size() < t - 1; };
  }
  out.push_back(
      {"Layer connectivity (Lemmas 5.1/5.3 (iii))",
       check_layer_connectivity(*model, depth, horizon,
                                layers_similarity_connected(kind), mode,
                                filter)});
  if (kind == ModelKind::kSync) {
    out.push_back({"Lemma 6.1 (bivalent chain)",
                   check_lemma_6_1(*model, t, horizon, mode)});
    out.push_back({"Lemma 6.2 (two more rounds needed)",
                   check_lemma_6_2(*model, depth, horizon, mode)});
  }
  return out;
}

std::string runtime_report() {
  Table table({"stat", "kind", "value", "calls"});
  const guard::GuardSpec& spec = guard::process_guard_spec();
  if (spec.limited()) {
    if (spec.budget_ms > 0) {
      table.add_row({"guard.budget_ms", "config",
                     cell(static_cast<long long>(spec.budget_ms)), "-"});
    }
    if (spec.max_states > 0) {
      table.add_row({"guard.max_states", "config",
                     cell(static_cast<long long>(spec.max_states)), "-"});
    }
  }
  for (const runtime::StatSample& s : runtime::Stats::global().snapshot()) {
    if (s.is_timer) {
      table.add_row({s.name, "timer",
                     cell(static_cast<double>(s.value) * 1e-6, 3) + " ms",
                     cell(static_cast<long long>(s.count))});
    } else {
      table.add_row(
          {s.name, "counter", cell(static_cast<long long>(s.value)), "-"});
    }
  }
  return table.to_string("Runtime stats (lacon::runtime)");
}

}  // namespace lacon
