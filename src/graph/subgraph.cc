#include "graph/subgraph.h"

#include <algorithm>

#include "util/logging.h"

namespace longtail {

namespace {

/// Fibonacci multiplicative hash of a node id into `mask + 1` slots.
inline uint32_t NodeSlot(NodeId node, uint32_t mask) {
  return static_cast<uint32_t>(
             (static_cast<uint64_t>(static_cast<uint32_t>(node)) *
              0x9E3779B97F4A7C15ull) >>
             32) &
         mask;
}

}  // namespace

void SubgraphNodeIndex::Build(int32_t num_global_users,
                              int32_t num_global_items, const Subgraph& sub) {
  num_global_users_ = num_global_users;
  num_global_items_ = num_global_items;
  const size_t n = sub.users.size() + sub.items.size();
  // Keep the table at most half full so linear probes stay O(1) expected.
  size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  mask_ = static_cast<uint32_t>(cap - 1);
  key_.assign(cap, -1);
  value_.assign(cap, -1);
  auto insert = [&](NodeId global_node, NodeId local_node) {
    uint32_t slot = NodeSlot(global_node, mask_);
    while (key_[slot] != -1) slot = (slot + 1) & mask_;
    key_[slot] = global_node;
    value_[slot] = local_node;
  };
  for (size_t lu = 0; lu < sub.users.size(); ++lu) {
    insert(sub.users[lu], static_cast<NodeId>(lu));
  }
  const NodeId num_local_users = static_cast<NodeId>(sub.users.size());
  for (size_t li = 0; li < sub.items.size(); ++li) {
    insert(num_global_users + sub.items[li],
           num_local_users + static_cast<NodeId>(li));
  }
  built_ = true;
}

void SubgraphNodeIndex::Clear() {
  built_ = false;
  num_global_users_ = 0;
  num_global_items_ = 0;
  mask_ = 0;
  key_.clear();
  value_.clear();
}

NodeId SubgraphNodeIndex::LocalNode(NodeId global_node) const {
  if (!built_ || global_node < 0 ||
      global_node >= num_global_users_ + num_global_items_) {
    return -1;
  }
  uint32_t slot = NodeSlot(global_node, mask_);
  while (key_[slot] != -1) {
    if (key_[slot] == global_node) return value_[slot];
    slot = (slot + 1) & mask_;
  }
  return -1;
}

NodeId SubgraphNodeIndex::LocalUser(UserId global_user) const {
  if (global_user < 0 || global_user >= num_global_users_) return -1;
  return LocalNode(global_user);
}

NodeId SubgraphNodeIndex::LocalItem(ItemId global_item) const {
  if (global_item < 0 || global_item >= num_global_items_) return -1;
  return LocalNode(num_global_users_ + global_item);
}

NodeId Subgraph::LocalUserNode(UserId global_user) const {
  if (workspace_ != nullptr) return workspace_->LocalUser(global_user);
  return node_index.LocalUser(global_user);
}

NodeId Subgraph::LocalItemNode(ItemId global_item) const {
  if (workspace_ != nullptr) return workspace_->LocalItem(global_item);
  return node_index.LocalItem(global_item);
}

void WalkWorkspace::AdoptSharedSubgraph(std::shared_ptr<const Subgraph> src) {
  LT_CHECK(src != nullptr && src->node_index.built())
      << "shared adoption needs an admission-built payload node index";
  // The whole point: one pointer store. The payload keeps graph, layout,
  // plan and node index alive together; nothing is copied or rebuilt.
  shared_sub_ = std::move(src);
}

void WalkWorkspace::BeginQuery(const BipartiteGraph& g) {
  shared_sub_.reset();
  const size_t n = static_cast<size_t>(g.num_nodes());
  num_global_users_ = g.num_users();
  num_global_items_ = g.num_items();
  if (stamp_.size() != n) {
    stamp_.assign(n, 0);
    local_id_.assign(n, -1);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // Epoch wrapped around: every stale stamp would look current again, so
    // pay one O(n) clear per 2^32 queries.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
}

void WalkWorkspace::AdoptSubgraph(const BipartiteGraph& g,
                                  const Subgraph& src) {
  BeginQuery(g);
  sub_.workspace_ = this;
  sub_.users = src.users;
  sub_.items = src.items;
  sub_.graph = src.graph;
  // Shared, immutable: adopting the layout is a pointer copy — the
  // permutation was paid once, when the cache admitted the payload.
  sub_.layout = src.layout;
  // The plan is NOT carried over: it points into src's graph, which this
  // deep copy does not keep alive. The copy path rebuilds transitions.
  sub_.plan.reset();
  sub_.node_index.Clear();
  for (size_t lu = 0; lu < sub_.users.size(); ++lu) {
    const NodeId gv = g.UserNode(sub_.users[lu]);
    stamp_[gv] = epoch_;
    local_id_[gv] = static_cast<int32_t>(lu);
  }
  const int32_t num_local_users = static_cast<int32_t>(sub_.users.size());
  for (size_t li = 0; li < sub_.items.size(); ++li) {
    const NodeId gv = g.ItemNode(sub_.items[li]);
    stamp_[gv] = epoch_;
    local_id_[gv] = num_local_users + static_cast<int32_t>(li);
  }
}

Subgraph& ExtractSubgraphInto(const BipartiteGraph& g,
                              const std::vector<NodeId>& seed_nodes,
                              const SubgraphOptions& options,
                              WalkWorkspace* workspace) {
  WalkWorkspace& ws = *workspace;
  ws.BeginQuery(g);
  Subgraph& sub = ws.sub_;
  sub.workspace_ = workspace;
  sub.users.clear();
  sub.items.clear();
  // A fresh extraction has no layout, plan or node index; the
  // SubgraphCache builds all three when (and only when) it admits this
  // subgraph as a payload.
  sub.layout.reset();
  sub.plan.reset();
  sub.node_index.Clear();

  const int32_t n = g.num_nodes();
  std::vector<NodeId>& order = ws.order_;
  order.clear();
  int32_t item_count = 0;

  auto visit = [&](NodeId v) {
    if (ws.stamp_[v] == ws.epoch_) return;
    ws.stamp_[v] = ws.epoch_;
    ws.local_id_[v] = -1;
    order.push_back(v);
    if (g.IsItemNode(v)) ++item_count;
  };

  for (NodeId s : seed_nodes) {
    LT_CHECK_GE(s, 0);
    LT_CHECK_LT(s, n);
    visit(s);
  }
  // `order` doubles as the FIFO frontier: `head` walks it while `visit`
  // appends, which is exactly the queue the old implementation kept.
  const bool capped = options.max_items > 0;
  size_t head = 0;
  while (head < order.size() && (!capped || item_count <= options.max_items)) {
    const NodeId v = order[head++];
    for (NodeId nbr : g.Neighbors(v)) {
      visit(nbr);
      if (capped && item_count > options.max_items) break;
    }
  }

  // Assign local ids: users first, then items, in visit order.
  for (NodeId v : order) {
    if (g.IsUserNode(v)) {
      ws.local_id_[v] = static_cast<int32_t>(sub.users.size());
      sub.users.push_back(g.UserOf(v));
    } else {
      sub.items.push_back(g.ItemOf(v));
    }
  }
  const int32_t num_local_users = static_cast<int32_t>(sub.users.size());
  const int32_t num_local_items = static_cast<int32_t>(sub.items.size());
  {
    int32_t li = 0;
    for (NodeId v : order) {
      if (g.IsItemNode(v)) ws.local_id_[v] = num_local_users + li++;
    }
  }

  // Induced CSR: count degrees, then fill edges directly into the reused
  // graph storage. Iterating the user side only visits each undirected edge
  // once and reproduces the old FromAdjacency entry order exactly (user
  // rows in neighbor order, item rows in ascending local-user order).
  ws.degrees_.assign(num_local_users + num_local_items, 0);
  for (int32_t lu = 0; lu < num_local_users; ++lu) {
    const NodeId gv = g.UserNode(sub.users[lu]);
    for (NodeId nbr : g.Neighbors(gv)) {
      const NodeId li = ws.LocalNode(nbr);
      if (li < 0) continue;
      ++ws.degrees_[lu];
      ++ws.degrees_[li];
    }
  }
  sub.graph.BeginAssign(num_local_users, num_local_items, ws.degrees_);
  for (int32_t lu = 0; lu < num_local_users; ++lu) {
    const NodeId gv = g.UserNode(sub.users[lu]);
    const auto nbrs = g.Neighbors(gv);
    const auto wts = g.Weights(gv);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId li = ws.LocalNode(nbrs[k]);
      if (li < 0) continue;
      sub.graph.AssignEdge(lu, li, wts[k]);
    }
  }
  sub.graph.FinishAssign();
  return sub;
}

Subgraph ExtractSubgraph(const BipartiteGraph& g,
                         const std::vector<NodeId>& seed_nodes,
                         const SubgraphOptions& options) {
  WalkWorkspace workspace;
  Subgraph sub = std::move(ExtractSubgraphInto(g, seed_nodes, options,
                                               &workspace));
  // Detach from the dying workspace: lookups move to the compact index.
  sub.workspace_ = nullptr;
  sub.node_index.Build(g.num_users(), g.num_items(), sub);
  return sub;
}

}  // namespace longtail
