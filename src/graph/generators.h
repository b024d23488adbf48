// Synthetic graph generators standing in for the paper's dataset table
// (Table 3). Each produces an EdgeList; Graph::FromEdges assembles CSRs.
//
// The evaluation's qualitative behaviour depends on two properties we
// reproduce faithfully: degree skew (drives load imbalance, i.e. the
// thread/warp/CTA split) and diameter (drives iteration count, i.e. the
// filter-selection patterns of Figure 8). R-MAT/Kron give skew; 2-D grid
// road maps give diameter; uniform random gives neither.
#ifndef SIMDX_GRAPH_GENERATORS_H_
#define SIMDX_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/edge_list.h"

namespace simdx {

struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;  // Graph500 defaults; d = 1 - a - b - c
};

// R-MAT [Chakrabarti et al.]: 2^scale vertices, edge_factor * 2^scale edges,
// recursively partitioned adjacency matrix. Weights uniform in
// [1, max_weight].
EdgeList GenerateRmat(uint32_t scale, uint32_t edge_factor, uint64_t seed,
                      RmatParams params = {}, uint32_t max_weight = 64);

// Kronecker generator per the Graph500 spec — identical recursion with the
// Graph500 (a, b, c) and bit-shuffled vertex relabeling so that high-degree
// vertices are not clustered at small ids.
EdgeList GenerateKronecker(uint32_t scale, uint32_t edge_factor, uint64_t seed,
                           uint32_t max_weight = 64);

// Uniformly random (Erdős–Rényi style) multigraph: `edge_count` independent
// (src, dst) pairs. The RD analogue: near-uniform degrees, tiny diameter.
EdgeList GenerateUniformRandom(VertexId vertex_count, EdgeIdx edge_count,
                               uint64_t seed, uint32_t max_weight = 64);

// Road-network analogue (ER / RC class): a width x height 4-neighbor grid
// with `extra_fraction` of random chords removed/added to roughen it.
// Diameter ~ width + height, degrees <= 4 — the high-diameter, low-degree
// regime where the online filter wins for the whole run.
EdgeList GenerateGridRoad(uint32_t width, uint32_t height, uint64_t seed,
                          double chord_fraction = 0.01, uint32_t max_weight = 64);

// Small-world ring lattice (Watts–Strogatz): each vertex connected to `k`
// ring neighbors with probability `beta` rewiring. Medium diameter class
// (LJ / PK / UK analogue when combined with rmat-like skew is not needed).
EdgeList GenerateSmallWorld(VertexId vertex_count, uint32_t k, double beta,
                            uint64_t seed, uint32_t max_weight = 64);

// Deterministic shapes used heavily by unit tests.
EdgeList GenerateChain(VertexId vertex_count);                 // 0-1-2-...-n-1
EdgeList GenerateStar(VertexId leaf_count);                    // hub = 0
EdgeList GenerateComplete(VertexId vertex_count);              // K_n
EdgeList GenerateBinaryTree(uint32_t levels);                  // rooted at 0

// Funnel: root 0 -> `sources` spokes, every spoke -> each of `hubs` hub
// vertices (ids 1..hubs), every hub -> one shared tail. One push iteration
// converges sources*hubs records on `hubs` destinations — long
// per-destination apply chains over many collect chunks, and the showcase
// for pre-combining (the contention tests and push_replay's fold-ratio
// gate share this shape).
// `park_weights` makes the spoke->hub weights straddle SSSP's default
// delta bucket so delta-stepping parks from inside the replay.
EdgeList GenerateFunnel(uint32_t sources, uint32_t hubs,
                        bool park_weights = false);

// The 9-vertex, 10-edge weighted example of the paper's Figure 1 (vertices
// a..i mapped to ids 0..8). Tests replay the SSSP walkthrough against it.
EdgeList PaperFigure1Graph();

}  // namespace simdx

#endif  // SIMDX_GRAPH_GENERATORS_H_
