// Unit tests for src/relation: graph algorithms, the similarity relation and
// the fingerprint-indexed similarity graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "analysis/reports.hpp"
#include "core/decision_rule.hpp"
#include "engine/explore.hpp"
#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/msgpass/msgpass_sync_model.hpp"
#include "models/snapshot/snapshot_model.hpp"
#include "relation/graph.hpp"
#include "relation/similarity.hpp"
#include "relation/similarity_index.hpp"
#include "runtime/stats.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace lacon {
namespace {

// Edge-for-edge equality: same vertices, same edges, same adjacency order.
bool graphs_identical(const Graph& a, const Graph& b) {
  if (a.size() != b.size() || a.edge_count() != b.edge_count()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

TEST(Graph, EmptyAndSingletonAreConnected) {
  EXPECT_TRUE(Graph(0).connected());
  EXPECT_TRUE(Graph(1).connected());
  EXPECT_FALSE(Graph(2).connected());
}

TEST(Graph, PathConnectivityAndDiameter) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.connected());
  ASSERT_TRUE(g.diameter());
  EXPECT_EQ(*g.diameter(), 3u);
  EXPECT_EQ(*g.distance(0, 3), 3u);
  EXPECT_EQ(g.shortest_path(0, 3).size(), 4u);
}

TEST(Graph, DisconnectedComponentsAndDiameter) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.connected());
  EXPECT_FALSE(g.diameter());
  EXPECT_FALSE(g.distance(0, 2));
  EXPECT_TRUE(g.shortest_path(0, 2).empty());
  const auto comp = g.components();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[4]);
}

TEST(Graph, FromRelationBuildsSymmetricEdges) {
  const Graph g = Graph::from_relation(
      4, [](std::size_t a, std::size_t b) { return a + 1 == b; });
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(Graph, CompleteGraphDiameterOne) {
  const Graph g =
      Graph::from_relation(6, [](std::size_t, std::size_t) { return true; });
  ASSERT_TRUE(g.diameter());
  EXPECT_EQ(*g.diameter(), 1u);
}

// Property test: on random graphs, distance() is symmetric and satisfies
// the triangle inequality along shortest paths.
TEST(Graph, RandomGraphDistanceProperties) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size = 2 + rng.below(10);
    Graph g(size);
    for (std::size_t a = 0; a < size; ++a) {
      for (std::size_t b = a + 1; b < size; ++b) {
        if (rng.below(3) == 0) g.add_edge(a, b);
      }
    }
    for (std::size_t a = 0; a < size; ++a) {
      for (std::size_t b = 0; b < size; ++b) {
        const auto ab = g.distance(a, b);
        const auto ba = g.distance(b, a);
        ASSERT_EQ(ab.has_value(), ba.has_value());
        if (ab) {
          ASSERT_EQ(*ab, *ba);
          const auto path = g.shortest_path(a, b);
          ASSERT_EQ(path.size(), *ab + 1);
        }
      }
    }
  }
}

TEST(Similarity, InitialStatesDifferingInOneInput) {
  auto rule = never_decide();
  MobileModel model(3, *rule);
  const auto& con0 = model.initial_states();
  ASSERT_EQ(con0.size(), 8u);
  // Count similar pairs: each pair of assignments at Hamming distance 1.
  int similar_pairs = 0;
  for (std::size_t a = 0; a < con0.size(); ++a) {
    for (std::size_t b = a + 1; b < con0.size(); ++b) {
      if (similar(model, con0[a], con0[b])) ++similar_pairs;
    }
  }
  // The 3-cube has 12 edges.
  EXPECT_EQ(similar_pairs, 12);
}

TEST(Similarity, WitnessIsTheDifferingProcess) {
  auto rule = never_decide();
  MobileModel model(3, *rule);
  const auto& con0 = model.initial_states();
  for (std::size_t a = 0; a < con0.size(); ++a) {
    for (std::size_t b = a + 1; b < con0.size(); ++b) {
      const auto w = similarity_witness(model, con0[a], con0[b]);
      if (!w) continue;
      EXPECT_TRUE(model.agree_modulo(con0[a], con0[b], *w));
    }
  }
}

TEST(Similarity, Con0GraphIsCube) {
  auto rule = never_decide();
  MobileModel model(4, *rule);
  const auto& con0 = model.initial_states();
  const Graph g = similarity_graph(model, con0);
  EXPECT_TRUE(g.connected());
  // Q4: 32 edges, diameter 4.
  EXPECT_EQ(g.edge_count(), 32u);
  ASSERT_TRUE(s_diameter(model, con0));
  EXPECT_EQ(*s_diameter(model, con0), 4u);
}

TEST(Similarity, SelfSimilarityHoldsViaAnyWitness) {
  auto rule = never_decide();
  MobileModel model(2, *rule);
  const auto& con0 = model.initial_states();
  for (StateId x : con0) {
    EXPECT_TRUE(similar(model, x, x));
  }
}

// --- CSR layout ---

TEST(Graph, NeighborRowsPreserveInsertionOrder) {
  // The CSR rows must reproduce the classic push-back adjacency order:
  // edge (a, b) appends b to a's row and a to b's row, in edge order.
  Graph g(4);
  g.add_edge(2, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto row = g.neighbors(2);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 0u);
  EXPECT_EQ(row[1], 1u);
  EXPECT_EQ(row[2], 3u);
  // Queries after further edge insertions see the refreshed layout.
  g.add_edge(0, 1);
  EXPECT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.edge_count(), 4u);
}

TEST(Graph, FromSortedEdgesMatchesFromRelation) {
  const auto related = [](std::size_t a, std::size_t b) {
    return (a + b) % 3 == 0;
  };
  const Graph swept = Graph::from_relation(24, related);
  std::vector<Graph::Edge> edges;
  for (std::size_t a = 0; a < 24; ++a) {
    for (std::size_t b = a + 1; b < 24; ++b) {
      if (related(a, b)) {
        edges.emplace_back(static_cast<Graph::Vertex>(a),
                           static_cast<Graph::Vertex>(b));
      }
    }
  }
  const Graph direct = Graph::from_sorted_edges(24, std::move(edges));
  EXPECT_TRUE(graphs_identical(swept, direct));
}

// --- Fingerprint-indexed similarity graph ---

// The index must reproduce the naive sweep's graph *exactly* — same edges,
// same adjacency order — on every model, including the synchronous one
// whose states record failures (exercising the witness liveness condition)
// and the message-passing ones with overridden fingerprints. The msgpass
// depth-2 level holds 2,496 states.
TEST(SimilarityIndex, IndexedEqualsNaiveAcrossModelsAndDepths) {
  struct Cfg {
    ModelKind kind;
    int n;
    int t;
    int depth;
  };
  const Cfg cfgs[] = {
      {ModelKind::kMobile, 3, 1, 2},    {ModelKind::kMobile, 4, 1, 1},
      {ModelKind::kSharedMem, 3, 1, 1}, {ModelKind::kMsgPass, 3, 1, 2},
      {ModelKind::kSync, 3, 1, 2},      {ModelKind::kSync, 4, 2, 1},
  };
  auto rule = min_after_round(2);
  for (const Cfg& cfg : cfgs) {
    auto model = make_model(cfg.kind, cfg.n, cfg.t, *rule);
    for (const auto& level : reachable_by_depth(*model, cfg.depth)) {
      const Graph naive = similarity_graph_naive(*model, level);
      const Graph indexed = similarity_graph_indexed(*model, level);
      EXPECT_TRUE(graphs_identical(naive, indexed))
          << model->name() << " n=" << cfg.n << " |X|=" << level.size();
    }
  }
}

// M^mf's layering S1 (x(j, [k]): j's messages to the processes below k are
// lost) whose fingerprint entries keep only their low `bits` bits, then
// rehashed so that the few values left land on unrelated home slots. An
// entry that is a function of a sound entry is sound (agree_modulo still
// implies equal entries), so the index must still find every ~s edge, but
// unrelated states now share groups, the same pair is grouped under
// several coordinates, and most candidates are rejected, some only after
// the grouping coordinate failed and another witnessed the edge. At 2 bits
// each group holds about a quarter of the level; at 8 bits the up to 256
// values per coordinate collide on home slots and share probe chains.
class CutRowModel final : public LayeredModel {
 public:
  CutRowModel(int n, const DecisionRule& rule, int bits)
      : LayeredModel(n, rule), mask_((std::uint64_t{1} << bits) - 1) {}

  std::string name() const override { return "S1/cut-rows"; }

  void fingerprint_row_into(StateId x, std::uint64_t* out) const override {
    LayeredModel::fingerprint_row_into(x, out);
    for (int j = 0; j < n(); ++j) out[j] = mix64(out[j] & mask_);
  }

 protected:
  std::vector<StateId> compute_layer(StateId x) override {
    std::vector<StateId> succ;
    SuccessorBuilder b;
    const StateRef s = state(x);
    for (ProcessId j = 0; j < n(); ++j) {
      for (ProcessId k = 0; k <= n(); ++k) {
        b.start(s);
        for (ProcessId i = 0; i < n(); ++i) {
          const auto iu = static_cast<std::size_t>(i);
          std::vector<Obs>& obs = b.obs[0];
          obs.clear();
          for (ProcessId sender = 0; sender < n(); ++sender) {
            if (sender == i) continue;
            const bool lost = sender == j && i < k;
            const ViewId sent = s.locals[static_cast<std::size_t>(sender)];
            obs.push_back(Obs{sender, lost ? kNoView : sent});
          }
          const ViewId view = views().extend(s.locals[iu], obs);
          b.next.locals[iu] = view;
          b.next.decisions[iu] = updated_decision(i, s.decisions[iu], view);
        }
        succ.push_back(intern_canonical(b.next));
      }
    }
    return succ;
  }

 private:
  std::uint64_t mask_;
};

TEST(SimilarityIndex, CutRowsGroupUnrelatedStatesAndStillMatchNaive) {
  auto rule = min_after_round(2);
  auto& rejected = runtime::Stats::global().counter("relation.index_rejected");
  for (int bits : {2, 8}) {
    CutRowModel model(3, *rule, bits);
    const std::uint64_t rejected_before = rejected.value();
    // Levels of 8, 56, 392 and 2,744 states.
    for (const auto& level : reachable_by_depth(model, 3)) {
      const Graph naive = similarity_graph_naive(model, level);
      const Graph indexed = similarity_graph_indexed(model, level);
      EXPECT_TRUE(graphs_identical(naive, indexed))
          << bits << " bits, |X|=" << level.size();
    }
    EXPECT_GT(rejected.value(), rejected_before) << bits << " bits";
  }
}

// The base models' erase-j fingerprint, one coordinate at a time: the
// "simfip"-seeded env hash, then every other process's local and decision.
// LayeredModel::fingerprint_row_into computes the whole row in one pass.
std::uint64_t reference_fingerprint(const StateRef& s, ProcessId j) {
  std::uint64_t h = hash_range(s.env, 0x73696d666970ULL);
  for (std::size_t i = 0; i < s.locals.size(); ++i) {
    if (i == static_cast<std::size_t>(j)) continue;
    h = hash_combine(h, static_cast<std::uint64_t>(s.locals[i]));
    h = hash_combine(h, static_cast<std::uint64_t>(s.decisions[i]));
  }
  return h;
}

TEST(SimilarityIndex, BaseRowsMatchThePerCoordinateFold) {
  auto rule = min_after_round(2);
  std::vector<std::unique_ptr<LayeredModel>> models;
  for (ModelKind kind :
       {ModelKind::kMobile, ModelKind::kSharedMem, ModelKind::kSync}) {
    models.push_back(make_model(kind, 3, 1, *rule));
  }
  models.push_back(std::make_unique<SnapshotModel>(3, *rule));
  models.push_back(std::make_unique<IisModel>(3, *rule));
  for (const auto& model : models) {
    for (StateId x : reachable_states(*model, 2)) {
      const std::uint64_t* row = model->fingerprint_row(x);
      for (ProcessId j = 0; j < model->n(); ++j) {
        ASSERT_EQ(row[j], reference_fingerprint(model->state(x), j))
            << model->name() << " state " << x << " erasing " << j;
      }
    }
  }
}

// Soundness contract of the msgpass fingerprint overrides: agree_modulo
// truth implies fingerprint equality (for every erased coordinate), so the
// index can never drop a ~s edge.
template <typename Model>
void check_fingerprint_contract(Model& model, int depth) {
  const std::vector<StateId> states = reachable_states(model, depth);
  for (StateId x : states) {
    for (StateId y : states) {
      for (ProcessId j = 0; j < model.n(); ++j) {
        if (model.agree_modulo(x, y, j)) {
          ASSERT_EQ(model.fingerprint_row(x)[j], model.fingerprint_row(y)[j])
              << model.name() << " states " << x << "," << y << " mod " << j;
        }
      }
    }
  }
}

TEST(SimilarityIndex, MsgPassFingerprintRespectsAgreeModulo) {
  auto rule = min_after_round(2);
  MsgPassModel model(3, *rule);
  check_fingerprint_contract(model, 1);
}

TEST(SimilarityIndex, MsgPassSyncFingerprintRespectsAgreeModulo) {
  auto rule = min_after_round(2);
  MsgPassSyncModel model(3, *rule);
  check_fingerprint_contract(model, 2);
}

// The mailbox masking is not vacuous: two states whose in-transit messages
// differ only inside j's mailbox must agree modulo j and share the erase-j
// fingerprint, while differing at every other erased coordinate.
TEST(SimilarityIndex, MailboxMaskedFingerprintIgnoresOwnMailbox) {
  auto rule = never_decide();
  MsgPassModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  // Full round [0,1,2] vs. the same with {0,1} concurrent: the paper's
  // Section 5.1 chain — they agree modulo 1 only.
  const StateId a = model.apply_schedule(
      x0, Schedule{{0, -1}, {1, -1}, {2, -1}});
  const StateId b = model.apply_schedule(x0, Schedule{{0, 1}, {2, -1}});
  ASSERT_TRUE(model.agree_modulo(a, b, 1));
  EXPECT_EQ(model.fingerprint_row(a)[1], model.fingerprint_row(b)[1]);
  EXPECT_FALSE(model.agree_modulo(a, b, 0));
  EXPECT_NE(model.fingerprint_row(a)[0], model.fingerprint_row(b)[0]);
}

}  // namespace
}  // namespace lacon
