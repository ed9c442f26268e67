// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Synthetic graph generators. The paper's Table 2 uses SNAP's Deezer
// (144k nodes / 847k edges, social) and Amazon (335k / 926k, co-purchase)
// networks, which are not redistributable inside this repository; we
// synthesize Chung–Lu power-law graphs with matching node/edge counts and
// heavy-tailed degree sequences (docs/design.md documents the substitution —
// k-star counts and their sensitivities depend only on the degree sequence).

#pragma once

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"

namespace dpstarj::graph {

/// \brief Parameters for the Chung–Lu power-law generator.
struct GeneratorOptions {
  int64_t num_nodes = 10000;
  int64_t num_edges = 50000;
  /// Power-law exponent of the target degree distribution (2 < γ ≤ 3.5
  /// covers most social/co-purchase networks).
  double exponent = 2.5;
  /// Random seed.
  uint64_t seed = 42;
  /// When true, node ids are shuffled so degree is independent of id order
  /// (node-range predicates then select representative subpopulations).
  bool shuffle_ids = true;
};

/// \brief Generates a simple power-law graph with approximately
/// `num_edges` edges (duplicates/self-loops are rejected and resampled; the
/// final count can fall slightly short on dense corners).
Result<Graph> GeneratePowerLawGraph(const GeneratorOptions& options);

/// \brief Deezer-like social network: 144k nodes / 847k edges at scale 1.
/// `scale` shrinks both proportionally (benches default to scale ≪ 1).
Result<Graph> GenerateDeezerLike(double scale, uint64_t seed);

/// \brief Amazon-like co-purchase network: 335k nodes / 926k edges at scale 1.
Result<Graph> GenerateAmazonLike(double scale, uint64_t seed);

}  // namespace dpstarj::graph
