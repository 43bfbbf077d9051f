// Layout of a G-line token tree: which controllers each manager serves,
// and which of those links are co-located internal flags rather than
// G-lines. Every G-line unit (baseline GLock, guarded GLock, G-line
// barrier) takes its topology from build_token_tree, so the three agree
// on the tree by construction.
//
// Two shapes:
//   * flat (paper Section III-A): the first level is the mesh rows
//     (`group` = mesh width; the last row may be short), then one root
//     over all rows;
//   * hierarchical (Section V, scaling path 2): groups of at most
//     `group` children (the transmitters one G-line supports) at every
//     level, until one root is left.
// A level of one node is the root, except that a flat one-row mesh still
// gets a separate root above its row unless `single_row_is_root`.
//
// Co-location (Section III-A): with `colocate_middle`, the middle child
// of every group shares its manager's tile and talks to it through an
// internal flag, which is free wiring. The flat network then needs
// C - 1 G-lines per lock, matching paper Table I.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "gline/gline.hpp"

namespace glocks::gline {

struct TreeSpec {
  std::uint32_t num_cores = 0;
  /// Mesh width (flat) or children per manager (hierarchical).
  std::uint32_t group = 0;
  bool hierarchical = false;
  bool colocate_middle = false;
  /// Flat only: a one-row mesh makes its row manager the root instead of
  /// hanging it under a separate root.
  bool single_row_is_root = false;
};

/// One manager: its children and, per child link, whether that link is a
/// co-located internal flag. Children are vertex ids: core c is vertex c,
/// node n is vertex num_cores + n.
struct TreeNode {
  std::vector<std::uint32_t> children;
  std::vector<bool> local;  ///< one per child
};

struct TokenTree {
  std::uint32_t num_cores = 0;
  std::vector<TreeNode> nodes;   ///< level order, root last
  std::uint32_t depth = 0;       ///< manager levels, root included
  std::uint32_t num_glines = 0;  ///< child links that are real G-lines
};

TokenTree build_token_tree(const TreeSpec& spec);

/// The wire pair between a tree vertex (a core's controller or a manager)
/// and its parent manager. The root's pair stays idle.
struct Link {
  Wire up;    ///< towards the parent
  Wire down;  ///< from the parent
  Link(Cycle lat, bool local) : up(lat, local), down(lat, local) {}
};

/// One Link per vertex of `tree`, each a co-located flag pair where the
/// parent's link bit says so and a G-line pair otherwise.
std::vector<Link> make_links(const TokenTree& tree, Cycle latency);

}  // namespace glocks::gline
