#include "topo/internet.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cronets::topo {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// All regions, used for round-robin placement.
constexpr Region kAllRegions[] = {Region::kNaEast,       Region::kNaWest,
                                  Region::kEurope,       Region::kAsia,
                                  Region::kSouthAmerica, Region::kAustralia};
}  // namespace

Internet::Internet(const TopologyParams& params, const CloudParams& cloud)
    : params_(params), cloud_(cloud), rng_(params.seed) {
  generate(params);
  build_cloud(cloud);
}

void Internet::add_event(const LinkEvent& ev) {
  events_.push_back(ev);
  const std::size_t slot =
      2 * static_cast<std::size_t>(ev.link_id) + (ev.forward ? 1 : 0);
  if (ev.link_id >= 0 && slot < link_events_.size()) {
    link_events_[slot].push_back(ev);
  }
  Mutation m;
  m.kind = Mutation::Kind::kTransientEvent;
  m.event = ev;
  notify_mutation(m);
}

int Internet::add_mutation_listener(MutationListener listener) {
  const int id = next_listener_id_++;
  mutation_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Internet::remove_mutation_listener(int id) {
  for (auto it = mutation_listeners_.begin(); it != mutation_listeners_.end();
       ++it) {
    if (it->first == id) {
      mutation_listeners_.erase(it);
      return;
    }
  }
}

void Internet::notify_mutation(const Mutation& m) {
  for (const auto& [id, listener] : mutation_listeners_) {
    (void)id;
    listener(m);
  }
}

int Internet::new_as(Tier tier, Region region, GeoPoint pos, const std::string& name,
                     int num_routers) {
  AsNode as;
  as.id = static_cast<int>(ases_.size());
  as.tier = tier;
  as.region = region;
  as.pos = pos;
  as.name = name;
  for (int i = 0; i < num_routers; ++i) {
    RouterInfo r;
    r.id = static_cast<int>(routers_.size());
    r.as_id = as.id;
    r.name = name + "-r" + std::to_string(i);
    routers_.push_back(r);
    as.routers.push_back(r.id);
  }
  // Transit ASes get an aggregation router per border PoP (real crossings
  // are several IP hops); edge ASes use a plain star.
  const bool transit = tier == Tier::kTier1 || tier == Tier::kTier2;
  if (transit) {
    for (int i = 1; i < num_routers; ++i) {
      RouterInfo r;
      r.id = static_cast<int>(routers_.size());
      r.as_id = as.id;
      r.name = name + "-agg" + std::to_string(i);
      routers_.push_back(r);
      as.agg_routers.push_back(r.id);
    }
  }
  ases_.push_back(as);
  // Intra-AS star: routers[0] is the hub (core), the rest are border PoPs.
  // Any two crossings of the AS share only same-direction sub-legs, which
  // keeps overlay paths largely router-disjoint inside the core.
  auto& stored = ases_.back();
  for (int i = 1; i < num_routers; ++i) {
    const double delay =
        tier == Tier::kTier1 ? rng_.uniform(1.0, 6.0) : rng_.uniform(0.2, 1.5);
    if (transit) {
      // hub <-> agg_i <-> border_i
      const int agg = stored.agg_routers[static_cast<std::size_t>(i) - 1];
      stored.intra_links.push_back(new_link(stored.routers[0], agg, 40e9, delay / 2,
                                            /*is_core=*/false, /*cloud_grade=*/true));
      stored.intra_links.push_back(new_link(agg, stored.routers[i], 40e9, delay / 2,
                                            /*is_core=*/false, /*cloud_grade=*/true));
    } else {
      stored.intra_links.push_back(new_link(stored.routers[0], stored.routers[i],
                                            40e9, delay, /*is_core=*/false,
                                            /*cloud_grade=*/true));
    }
  }
  return stored.id;
}

net::BackgroundParams Internet::draw_condition(bool is_core, bool cloud_grade,
                                               double lon_for_phase,
                                               bool t1_interconnect) {
  net::BackgroundParams bg;
  const auto& p = params_;
  const double t1s = t1_interconnect ? p.t1_interconnect_scale : 1.0;
  double u;
  if (cloud_grade) {
    u = rng_.uniform(p.cloud_util_lo, p.cloud_util_hi);
    bg.sigma = 0.015;
    bg.mild_scale = 0.0002;  // premium ports: negligible burst loss
  } else {
    const double severe = (is_core ? p.core_severe_fraction : 0.0) * t1s;
    const double hot = (is_core ? p.core_hot_fraction : p.access_hot_fraction) * t1s;
    const double warm = is_core ? p.core_warm_fraction : p.access_warm_fraction;
    const double roll = rng_.uniform();
    if (roll < severe) {
      u = rng_.uniform(p.severe_util_lo, p.severe_util_hi);
      bg.sigma = 0.03;
    } else if (roll < severe + hot) {
      u = rng_.uniform(p.hot_util_lo, p.hot_util_hi);
      bg.sigma = 0.05;
    } else if (roll < severe + hot + warm) {
      u = rng_.uniform(p.warm_util_lo, p.warm_util_hi);
      bg.sigma = 0.04;
    } else {
      u = rng_.uniform(p.cool_util_lo, p.cool_util_hi);
      bg.sigma = 0.025;
    }
    bg.diurnal_amp = rng_.uniform(0.0, p.diurnal_amp_max);
    bg.diurnal_phase = lon_for_phase * kPi / 180.0;
    // Burst-loss susceptibility is heterogeneous and concentrated in the
    // core (Akella'03): edge links are mostly clean, core links shed
    // packets under moderate load — exactly the loss the overlay bypasses.
    if (is_core) {
      bg.mild_scale =
          rng_.bernoulli(p.mild_prob) ? rng_.uniform(p.mild_lo, p.mild_hi) * t1s : 0.0;
    } else {
      bg.mild_scale = rng_.bernoulli(p.access_mild_prob)
                          ? rng_.uniform(p.access_mild_lo, p.access_mild_hi)
                          : 0.0;
    }
    bg.mild_knee = p.mild_knee;
  }
  bg.mean_util = u;
  // Commercial links carry a small residual loss floor; cloud peering,
  // transit and backbone links are near-pristine (premium, over-provisioned
  // ports) — this is what makes the best overlay path almost loss-free
  // while the default path keeps a measurable retransmission rate (Fig. 4).
  bg.base_loss = cloud_grade
                     ? rng_.uniform(p.cloud_base_loss_lo, p.cloud_base_loss_hi)
                     : rng_.uniform(p.base_loss_lo, p.base_loss_hi);
  return bg;
}

int Internet::new_link(int router_a, int router_b, double capacity_bps,
                       double delay_ms, bool is_core, bool cloud_grade,
                       bool backbone, bool t1_interconnect) {
  TopoLink l;
  l.id = static_cast<int>(links_.size());
  l.router_a = router_a;
  l.router_b = router_b;
  l.capacity_bps = capacity_bps;
  l.delay_ms = delay_ms;
  l.is_core = is_core;
  l.is_backbone = backbone;
  const double lon =
      router_a >= 0 ? ases_[routers_[router_a].as_id].pos.lon : 0.0;
  l.bg_fwd = draw_condition(is_core, cloud_grade || backbone, lon, t1_interconnect);
  l.bg_rev = draw_condition(is_core, cloud_grade || backbone, lon, t1_interconnect);
  links_.push_back(l);
  link_events_.resize(2 * links_.size());
  return l.id;
}

void Internet::relate(int as_a, int as_b, Rel rel_a_to_b, double capacity_bps,
                      bool cloud_grade) {
  AsNode& a = ases_[as_a];
  AsNode& b = ases_[as_b];
  // Spread attachments round-robin over each AS's border PoPs (not the hub).
  auto border = [](const AsNode& n) -> int {
    if (n.routers.size() == 1) return n.routers[0];
    return n.routers[1 + n.adj.size() % (n.routers.size() - 1)];
  };
  const int ra = border(a);
  const int rb = border(b);
  const double detour =
      cloud_grade
          ? rng_.uniform(params_.cloud_detour_lo, params_.cloud_detour_hi)
          : std::min(params_.detour_max,
                     std::max(1.0, rng_.lognormal(params_.detour_mu,
                                                  params_.detour_sigma)));
  const double delay = propagation_ms(distance_km(a.pos, b.pos)) * detour;
  const bool core = (a.tier != Tier::kStub && b.tier != Tier::kStub) &&
                    !(a.tier == Tier::kCloudDc || b.tier == Tier::kCloudDc);
  const bool t1t1 = a.tier == Tier::kTier1 && b.tier == Tier::kTier1;
  const int lid =
      new_link(ra, rb, capacity_bps, delay, core, cloud_grade, false, t1t1);
  a.adj.push_back(AsAdjacency{as_b, rel_a_to_b, lid, ra, rb});
  b.adj.push_back(AsAdjacency{as_a, reverse(rel_a_to_b), lid, rb, ra});
}

void Internet::generate(const TopologyParams& p) {
  // ---- Tier 1 backbone: spread across regions, dense peering mesh. ----
  for (int i = 0; i < p.num_tier1; ++i) {
    const Region r = kAllRegions[i % 6 < 4 ? i % 4 : i % 6];  // bias to NA/EU/Asia
    GeoPoint pos = region_center(r);
    pos.lat += rng_.uniform(-6.0, 6.0);
    pos.lon += rng_.uniform(-10.0, 10.0);
    tier1_.push_back(new_as(Tier::kTier1, r, pos, "t1-" + std::to_string(i), 6));
  }
  for (std::size_t i = 0; i < tier1_.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1_.size(); ++j) {
      if (rng_.bernoulli(p.t1_peer_prob)) {
        relate(tier1_[i], tier1_[j], Rel::kPeerWith, 40e9, false);
      }
    }
  }

  // ---- Tier 2 regionals: customers of nearest T1s, some peering. ----
  for (int i = 0; i < p.num_tier2; ++i) {
    const Region r = kAllRegions[i % 6 < 4 ? i % 4 : i % 6];
    GeoPoint pos = region_center(r);
    pos.lat += rng_.uniform(-7.0, 7.0);
    pos.lon += rng_.uniform(-12.0, 12.0);
    const int id = new_as(Tier::kTier2, r, pos, "t2-" + std::to_string(i), 5);
    tier2_.push_back(id);

    // Providers: k nearest T1s (with a jittered metric for variety).
    std::vector<std::pair<double, int>> cand;
    for (int t1 : tier1_) {
      cand.push_back({distance_km(pos, ases_[t1].pos) * rng_.uniform(0.8, 1.6), t1});
    }
    std::sort(cand.begin(), cand.end());
    const int k = static_cast<int>(
        rng_.uniform_int(p.t2_min_providers, p.t2_max_providers));
    for (int j = 0; j < k && j < static_cast<int>(cand.size()); ++j) {
      relate(id, cand[j].second, Rel::kCustomerOf, 10e9, false);
    }
  }
  for (std::size_t i = 0; i < tier2_.size(); ++i) {
    for (std::size_t j = i + 1; j < tier2_.size(); ++j) {
      const AsNode& a = ases_[tier2_[i]];
      const AsNode& b = ases_[tier2_[j]];
      const double prob = a.region == b.region ? p.t2_same_region_peer_prob
                                               : p.t2_cross_region_peer_prob;
      if (rng_.bernoulli(prob)) {
        relate(tier2_[i], tier2_[j], Rel::kPeerWith, 10e9, false);
      }
    }
  }

  // ---- Stub / edge ASes: weighted region mix, 1-2 nearby T2 providers. ----
  std::vector<double> weights;
  std::vector<Region> wregion;
  for (auto [reg, w] : p.stub_region_weights) {
    wregion.push_back(reg);
    weights.push_back(w);
  }
  for (int i = 0; i < p.num_stubs; ++i) {
    const Region r = wregion[rng_.weighted_index(weights)];
    GeoPoint pos = region_center(r);
    pos.lat += rng_.uniform(-8.0, 8.0);
    pos.lon += rng_.uniform(-14.0, 14.0);
    const int id = new_as(Tier::kStub, r, pos, "stub-" + std::to_string(i), 3);
    stubs_.push_back(id);
    stubs_by_region_[r].push_back(id);

    std::vector<std::pair<double, int>> cand;
    for (int t2 : tier2_) {
      cand.push_back({distance_km(pos, ases_[t2].pos) * rng_.uniform(0.7, 2.0), t2});
    }
    std::sort(cand.begin(), cand.end());
    const int k = static_cast<int>(
        rng_.uniform_int(p.stub_min_providers, p.stub_max_providers));
    for (int j = 0; j < k && j < static_cast<int>(cand.size()); ++j) {
      relate(id, cand[j].second, Rel::kCustomerOf, 2.5e9, false);
    }
  }
}

void Internet::build_cloud(const CloudParams& c) {
  for (std::size_t i = 0; i < c.dcs.size(); ++i) {
    const auto& dc = c.dcs[i];
    // Pick the region whose centre is closest to the DC.
    Region best = Region::kNaEast;
    double best_d = 1e18;
    for (Region r : kAllRegions) {
      const double d = distance_km(dc.pos, region_center(r));
      if (d < best_d) {
        best_d = d;
        best = r;
      }
    }
    const int id = new_as(Tier::kCloudDc, best, dc.pos, "dc-" + dc.name, 2);
    cloud_as_.push_back(id);

    // Transit from the nearest T1s; rich settlement-free peering with the
    // nearest T2s (the "aggressively peered at IXPs" trend).
    std::vector<std::pair<double, int>> t1cand, t2cand;
    for (int t1 : tier1_) t1cand.push_back({distance_km(dc.pos, ases_[t1].pos), t1});
    for (int t2 : tier2_) t2cand.push_back({distance_km(dc.pos, ases_[t2].pos), t2});
    std::sort(t1cand.begin(), t1cand.end());
    std::sort(t2cand.begin(), t2cand.end());
    for (int j = 0; j < c.transit_t1s && j < static_cast<int>(t1cand.size()); ++j) {
      relate(id, t1cand[j].second, Rel::kCustomerOf, 10e9, /*cloud_grade=*/true);
    }
    for (int j = 0; j < c.peer_t2s && j < static_cast<int>(t2cand.size()); ++j) {
      relate(id, t2cand[j].second, Rel::kPeerWith, 10e9, /*cloud_grade=*/true);
    }
  }

  // Private backbone: full mesh between the DCs' second routers.
  const int n = static_cast<int>(cloud_as_.size());
  backbone_links_.assign(static_cast<std::size_t>(n) * n, -1);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const AsNode& a = ases_[cloud_as_[i]];
      const AsNode& b = ases_[cloud_as_[j]];
      // Only a non-default detour range consumes RNG: the default mesh
      // must reproduce pre-existing worlds bit for bit.
      const double detour =
          c.backbone_detour_hi > c.backbone_detour_lo ||
                  c.backbone_detour_lo != 1.0
              ? rng_.uniform(c.backbone_detour_lo, c.backbone_detour_hi)
              : 1.0;
      const double delay = propagation_ms(distance_km(a.pos, b.pos)) * detour;
      const int lid = new_link(a.routers.back(), b.routers.back(),
                               c.backbone_capacity_bps, delay, /*is_core=*/false,
                               /*cloud_grade=*/true, /*backbone=*/true);
      backbone_links_[i * n + j] = lid;
      backbone_links_[j * n + i] = lid;
    }
  }

  // One VM endpoint per DC, behind the 100 Mbps virtual NIC.
  for (std::size_t i = 0; i < cloud_as_.size(); ++i) {
    net::BackgroundParams bg;
    bg.mean_util = rng_.uniform(0.02, 0.10);
    bg.sigma = 0.01;
    bg.base_loss = 1e-6;
    dc_endpoints_.push_back(
        add_endpoint(cloud_as_[i], "vm-" + c.dcs[i].name, c.vm_nic_bps, bg));
  }
}

int Internet::add_endpoint(int as_id, const std::string& name, double access_bps,
                           net::BackgroundParams bg) {
  Endpoint e;
  e.id = static_cast<int>(endpoints_.size());
  e.as_id = as_id;
  e.name = name;
  e.region = ases_[as_id].region;
  e.access_router = ases_[as_id].routers.front();
  const int lid = new_link(e.access_router, /*router_b=*/-1, access_bps,
                           rng_.uniform(0.2, 2.0), /*is_core=*/false,
                           /*cloud_grade=*/true);
  // Access-link condition is endpoint-specific, not drawn from core pools.
  links_[lid].bg_fwd = bg;
  links_[lid].bg_rev = bg;
  e.access_link = lid;
  endpoints_.push_back(e);
  return e.id;
}

int Internet::add_client(Region region, const std::string& name) {
  auto& pool = stubs_by_region_[region];
  assert(!pool.empty() && "no stub AS in requested region");
  const int as_id = pool[next_stub_in_region_[region]++ % pool.size()];
  net::BackgroundParams bg;
  // Client last mile: usually fine, occasionally busy (MPTCP's last-mile
  // premise holds for a minority of paths). A busy last mile caps the
  // *residual capacity* seen by every path to this client — direct and
  // overlay alike — so those pairs are structurally unimprovable (the
  // ratio~1 mass in Fig. 3 and the polarity in Fig. 10).
  const bool busy = rng_.bernoulli(0.3);
  bg.mean_util = busy ? rng_.uniform(0.45, 0.75) : rng_.uniform(0.03, 0.3);
  bg.sigma = 0.04;
  bg.base_loss = rng_.uniform(2e-6, 2e-5);
  bg.mild_knee = 0.35;
  bg.mild_scale = 0.01;  // busy access sheds packets well before saturation
  // Busy last miles are the slow ones (a congested 1G access would not be).
  const double bps = busy ? 100e6 : (rng_.bernoulli(0.5) ? 100e6 : 1e9);
  const int ep = add_endpoint(as_id, name, bps, bg);
  // PlanetLab-class node: small TCP buffers cap the window-bound rate.
  endpoints_[ep].rcv_buf =
      rng_.uniform_int(params_.client_rcv_buf_lo, params_.client_rcv_buf_hi);
  return ep;
}

int Internet::add_server(Region region, const std::string& name) {
  // Real-life mirror servers live in well-connected hosting: attach them
  // directly to a tier-2 transit AS in the region (fallback: any tier-2).
  std::vector<int> candidates;
  for (int t2 : tier2_) {
    if (ases_[t2].region == region) candidates.push_back(t2);
  }
  if (candidates.empty()) candidates = tier2_;
  const int as_id = candidates[rng_.index(candidates.size())];
  net::BackgroundParams bg;
  bg.mean_util = rng_.uniform(0.05, 0.3);
  bg.sigma = 0.02;
  bg.base_loss = rng_.uniform(1e-6, 1e-5);
  return add_endpoint(as_id, name, 1e9, bg);
}

bool Internet::set_adjacency_up(int as_a, int as_b, bool up) {
  bool found = false;
  for (int as : {as_a, as_b}) {
    const int other = as == as_a ? as_b : as_a;
    for (auto& adj : ases_[static_cast<std::size_t>(as)].adj) {
      if (adj.nbr_as == other) {
        adj.up = up;
        found = true;
      }
    }
  }
  if (found) {
    // Refresh the routing tables, then re-expand exactly the interned paths
    // whose route moved, before any listener queries a route.
    Routing::Diff diff;
    routing_.on_adjacency_change(as_a, as_b, up, &diff);
    Mutation m;
    m.kind = Mutation::Kind::kAdjacencyChange;
    m.as_a = as_a;
    m.as_b = as_b;
    m.up = up;
    path_cache_.on_adjacency_change(as_a, as_b, diff);
    notify_mutation(m);
  }
  return found;
}

bool Internet::adjacency_up(int as_a, int as_b) const {
  for (const auto& adj : ases_[static_cast<std::size_t>(as_a)].adj) {
    if (adj.nbr_as == as_b) return adj.up;
  }
  return false;
}

int Internet::dc_endpoint(const std::string& dc_name) const {
  for (std::size_t i = 0; i < cloud_.dcs.size(); ++i) {
    if (cloud_.dcs[i].name == dc_name) return dc_endpoints_[i];
  }
  return -1;
}

int Internet::dc_slot(int ep) const {
  for (std::size_t i = 0; i < dc_endpoints_.size(); ++i) {
    if (dc_endpoints_[i] == ep) return static_cast<int>(i);
  }
  return -1;
}

bool Internet::on_backbone(int dc_ep_a, int dc_ep_b) const {
  const int ia = dc_slot(dc_ep_a);
  const int ib = dc_slot(dc_ep_b);
  return ia >= 0 && ib >= 0 && ia != ib;
}

int Internet::router_index(int as_id, int router_id) const {
  const auto& rs = ases_[as_id].routers;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (rs[i] == router_id) return static_cast<int>(i);
  }
  assert(false && "router not in AS");
  return 0;
}

void Internet::append_internal(int as_id, int from_idx, int to_idx,
                               RouterPath* path) const {
  // Star topology: border -> [agg ->] hub -> [agg ->] border. For transit
  // ASes, intra_links holds two entries per border (hub<->agg, agg<->border);
  // for edge ASes, one (hub<->border).
  const AsNode& as = ases_[as_id];
  if (from_idx == to_idx) return;
  const bool transit = !as.agg_routers.empty();
  auto leg = [&](int border_idx, bool outbound) {
    if (transit) {
      const int agg = as.agg_routers[static_cast<std::size_t>(border_idx) - 1];
      const int l_hub_agg = as.intra_links[2 * (border_idx - 1)];
      const int l_agg_border = as.intra_links[2 * (border_idx - 1) + 1];
      if (outbound) {  // hub -> agg -> border
        path->traversals.push_back(Traversal{l_hub_agg, true});
        path->routers.push_back(agg);
        path->traversals.push_back(Traversal{l_agg_border, true});
        path->routers.push_back(as.routers[border_idx]);
      } else {  // border -> agg -> hub
        path->traversals.push_back(Traversal{l_agg_border, false});
        path->routers.push_back(agg);
        path->traversals.push_back(Traversal{l_hub_agg, false});
        path->routers.push_back(as.routers[0]);
      }
    } else {
      const int lid = as.intra_links[static_cast<std::size_t>(border_idx) - 1];
      if (outbound) {
        path->traversals.push_back(Traversal{lid, true});
        path->routers.push_back(as.routers[border_idx]);
      } else {
        path->traversals.push_back(Traversal{lid, false});
        path->routers.push_back(as.routers[0]);
      }
    }
  };
  if (from_idx != 0) leg(from_idx, /*outbound=*/false);
  if (to_idx != 0) leg(to_idx, /*outbound=*/true);
}

RouterPath Internet::path(int ep_src, int ep_dst) {
  const Endpoint& s = endpoints_[ep_src];
  const Endpoint& d = endpoints_[ep_dst];
  RouterPath p;
  p.src_ep = ep_src;
  p.dst_ep = ep_dst;
  p.as_seq = routing_.as_path(s.as_id, d.as_id);
  if (p.as_seq.empty()) return p;

  // Host -> access router (access links store the router as router_a, so
  // host->router is the "reverse" direction).
  p.traversals.push_back(Traversal{s.access_link, false});
  p.routers.push_back(s.access_router);

  int cur_idx = router_index(s.as_id, s.access_router);
  for (std::size_t k = 0; k + 1 < p.as_seq.size(); ++k) {
    const int A = p.as_seq[k];
    const int B = p.as_seq[k + 1];
    const AsAdjacency* adj = nullptr;
    for (const auto& a : ases_[A].adj) {
      if (a.nbr_as == B && a.up) {
        adj = &a;
        break;
      }
    }
    assert(adj && "AS path uses a non-adjacent hop");
    append_internal(A, cur_idx, router_index(A, adj->my_router), &p);
    const TopoLink& l = links_[adj->link_id];
    p.traversals.push_back(Traversal{adj->link_id, l.router_a == adj->my_router});
    p.routers.push_back(adj->nbr_router);
    cur_idx = router_index(B, adj->nbr_router);
  }
  append_internal(d.as_id, cur_idx, router_index(d.as_id, d.access_router), &p);
  p.traversals.push_back(Traversal{d.access_link, true});
  p.valid = true;
  return p;
}

RouterPath Internet::backbone_path(int dc_ep_a, int dc_ep_b) {
  const int ia = dc_slot(dc_ep_a);
  const int ib = dc_slot(dc_ep_b);
  if (ia < 0 || ib < 0 || ia == ib) {
    RouterPath p = path(dc_ep_a, dc_ep_b);
    p.backbone = true;
    return p;
  }

  const Endpoint& s = endpoints_[dc_ep_a];
  const Endpoint& d = endpoints_[dc_ep_b];
  const AsNode& as_a = ases_[cloud_as_[ia]];
  const AsNode& as_b = ases_[cloud_as_[ib]];
  const int n = static_cast<int>(cloud_as_.size());
  const int lid = backbone_links_[ia * n + ib];

  RouterPath p;
  p.src_ep = dc_ep_a;
  p.dst_ep = dc_ep_b;
  p.backbone = true;
  p.as_seq = {as_a.id, as_b.id};
  p.traversals.push_back(Traversal{s.access_link, false});
  p.routers.push_back(s.access_router);
  append_internal(as_a.id, router_index(as_a.id, s.access_router),
                  static_cast<int>(as_a.routers.size()) - 1, &p);
  const TopoLink& l = links_[lid];
  p.traversals.push_back(Traversal{lid, l.router_a == as_a.routers.back()});
  p.routers.push_back(as_b.routers.back());
  append_internal(as_b.id, static_cast<int>(as_b.routers.size()) - 1,
                  router_index(as_b.id, d.access_router), &p);
  p.traversals.push_back(Traversal{d.access_link, true});
  p.valid = true;
  return p;
}

double Internet::base_rtt_ms(const RouterPath& p) const {
  double oneway = 0.0;
  for (const auto& t : p.traversals) oneway += links_[t.link_id].delay_ms;
  return 2.0 * oneway;
}

}  // namespace cronets::topo
