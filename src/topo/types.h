#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/background.h"

namespace cronets::topo {

/// Coarse geographic regions used to place ASes and endpoints. The mix
/// mirrors the paper's PlanetLab deployment (§II-A).
enum class Region {
  kNaEast,
  kNaWest,
  kEurope,
  kAsia,
  kSouthAmerica,
  kAustralia,
};

inline const char* region_name(Region r) {
  switch (r) {
    case Region::kNaEast: return "na-east";
    case Region::kNaWest: return "na-west";
    case Region::kEurope: return "europe";
    case Region::kAsia: return "asia";
    case Region::kSouthAmerica: return "south-america";
    case Region::kAustralia: return "australia";
  }
  return "?";
}

struct GeoPoint {
  double lat = 0.0;
  double lon = 0.0;
};

/// Great-circle distance in km.
double distance_km(GeoPoint a, GeoPoint b);
/// One-way propagation delay for a link spanning `km` (fiber ~200 km/ms,
/// plus a per-hop equipment constant).
double propagation_ms(double km);
GeoPoint region_center(Region r);

enum class Tier : std::uint8_t {
  kTier1,    ///< global transit backbone
  kTier2,    ///< regional transit
  kStub,     ///< edge/access AS (clients, servers attach here)
  kCloudDc,  ///< one cloud data-center AS (well peered)
};

/// Business relationship from the perspective of the first AS.
enum class Rel : std::uint8_t {
  kProviderOf,  ///< a sells transit to b
  kCustomerOf,  ///< a buys transit from b
  kPeerWith,    ///< settlement-free peering
};

inline Rel reverse(Rel r) {
  switch (r) {
    case Rel::kProviderOf: return Rel::kCustomerOf;
    case Rel::kCustomerOf: return Rel::kProviderOf;
    case Rel::kPeerWith: return Rel::kPeerWith;
  }
  return Rel::kPeerWith;
}

/// One physical link in the topology. Bidirectional, with per-direction
/// background-congestion parameters (bg_fwd applies a->b).
struct TopoLink {
  int id = -1;
  int router_a = -1;
  int router_b = -1;
  double capacity_bps = 10e9;
  double delay_ms = 1.0;
  net::BackgroundParams bg_fwd{};
  net::BackgroundParams bg_rev{};
  bool is_core = false;        ///< inter-AS link between/into tier-1/2
  bool is_backbone = false;    ///< cloud private backbone
};

struct RouterInfo {
  int id = -1;
  int as_id = -1;
  std::string name;
};

struct AsAdjacency {
  int nbr_as = -1;
  Rel rel = Rel::kPeerWith;  ///< relationship of *this* AS toward nbr
  int link_id = -1;
  int my_router = -1;
  int nbr_router = -1;
  bool up = true;            ///< BGP session state (failure injection)
};

struct AsNode {
  int id = -1;
  Tier tier = Tier::kStub;
  Region region = Region::kEurope;
  GeoPoint pos{};
  std::string name;
  std::vector<int> routers;      ///< [0]=hub/core, rest are border PoPs
  std::vector<int> agg_routers;  ///< transit only: aggregation per border
  /// Edge AS: intra_links[i-1] = hub<->routers[i].
  /// Transit AS: intra_links[2(i-1)] = hub<->agg_i, [2(i-1)+1] = agg_i<->routers[i].
  std::vector<int> intra_links;
  std::vector<AsAdjacency> adj;
};

/// A host attachment point (client, server, or cloud VM).
struct Endpoint {
  int id = -1;
  int as_id = -1;
  int access_link = -1;  ///< host <-> AS border router link
  int access_router = -1;
  std::string name;
  Region region = Region::kEurope;
  /// TCP receive buffer of this host. PlanetLab-era clients were
  /// memory-starved (small kernel autotuning limits), which caps their
  /// window-bound throughput; cloud VMs and servers are tuned.
  std::int64_t rcv_buf = 4 * 1024 * 1024;
};

/// One directed traversal of a physical link. `forward` means the packet
/// flows router_a -> router_b (selects which direction's background
/// parameters apply).
struct Traversal {
  int link_id = -1;
  bool forward = true;
};

/// Router-level path between two endpoints (including access links).
struct RouterPath {
  std::vector<int> routers;          ///< routers visited, in order
  std::vector<Traversal> traversals; ///< access + transit + access links
  std::vector<int> as_seq;           ///< AS-level path
  bool valid = false;
  /// The endpoints and key space this path was expanded for (set by
  /// Internet::path and Internet::backbone_path), so a holder of an interned
  /// path can ask the PathCache whether it is still the current entry.
  int src_ep = -1;
  int dst_ep = -1;
  bool backbone = false;
};

/// Shared immutable path as returned by the interning PathCache. Pointer
/// identity is stable for the lifetime of the cache entry — an entry is
/// replaced only when its route moves — so consumers may key their own
/// per-path memos on the RouterPath address.
using PathRef = std::shared_ptr<const RouterPath>;

}  // namespace cronets::topo
