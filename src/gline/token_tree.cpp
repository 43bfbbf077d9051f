#include "gline/token_tree.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace glocks::gline {

TokenTree build_token_tree(const TreeSpec& spec) {
  GLOCKS_CHECK(spec.num_cores >= 1 && spec.group >= 1,
               "a token tree needs at least one core and one per group");
  GLOCKS_CHECK(!spec.hierarchical || spec.group >= 2,
               "a hierarchical token tree needs groups of at least 2");
  TokenTree tree;
  tree.num_cores = spec.num_cores;
  // Build levels bottom-up: group the previous level's units (cores at
  // level 0) into managers of at most `span` children.
  std::uint32_t prev_count = spec.num_cores;
  std::uint32_t prev_first = 0;  // index of the previous level in nodes
  bool leaf_level = true;
  std::uint32_t span = spec.group;
  while (true) {
    const std::uint32_t count = (prev_count + span - 1) / span;
    const auto first = static_cast<std::uint32_t>(tree.nodes.size());
    for (std::uint32_t n = 0; n < count; ++n) {
      TreeNode& node = tree.nodes.emplace_back();
      const std::uint32_t lo = n * span;
      const std::uint32_t hi = std::min(prev_count, lo + span);
      for (std::uint32_t i = lo; i < hi; ++i) {
        const bool local = spec.colocate_middle && i - lo == (hi - lo) / 2;
        node.children.push_back(leaf_level ? i
                                           : spec.num_cores + prev_first + i);
        node.local.push_back(local);
        if (!local) ++tree.num_glines;
      }
    }
    ++tree.depth;
    if (count == 1 &&
        (spec.hierarchical || !leaf_level || spec.single_row_is_root)) {
      return tree;
    }
    prev_count = count;
    prev_first = first;
    leaf_level = false;
    if (!spec.hierarchical) span = count;  // flat: one root over the rows
  }
}

std::vector<Link> make_links(const TokenTree& tree, Cycle latency) {
  std::vector<bool> local(tree.num_cores + tree.nodes.size());
  for (const TreeNode& t : tree.nodes) {
    for (std::uint32_t i = 0; i < t.children.size(); ++i) {
      local[t.children[i]] = t.local[i];
    }
  }
  std::vector<Link> links;
  links.reserve(local.size());
  for (const bool l : local) links.emplace_back(latency, l);
  return links;
}

}  // namespace glocks::gline
