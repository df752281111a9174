"""
The fan of sign cones
=====================

Each orientation pair labels a cone of cycles; membership is a sign
check, rays are circuit classes, and facets drop the dimension by one.
The whole fan is a complete decomposition of the cycle space.
"""

from cographic import (Chain1, build_fan, catalog_graph, common_cone,
                       cone_contains, cone_dimension, cone_of, extremal_rays,
                       facets, voronoi_face_dim)

g = catalog_graph("B3")
fan = build_fan(g)
print(f"B3 fan: {len(fan)} cones, {len(fan.chambers())} chambers, "
      f"ambient dimension {cone_dimension(g, fan.chambers()[0])}")

# Dimensions complement the dual-polytope face dimensions.
for pair in fan.poset:
    d = cone_dimension(g, pair)
    print(f"  T={sorted(g.edges_of(pair.support))!s:18} dim={d} "
          f"dual face dim={voronoi_face_dim(g, pair)} "
          f"rays={len(extremal_rays(g, pair))}")

# Locating the minimal cone of a cycle is reading its signs.
c = Chain1({"e1": 1, "e2": 2, "e3": -3})
label = cone_of(g, c)
print("\nminimal cone of e1 + 2*e2 - 3*e3:", label.to_json(g)["phi"])

# Two cycles share a cone exactly when no edge carries opposite signs.
d = Chain1({"e1": 1, "e3": -1})
print("shares a cone with e1 - e3:", common_cone(c, d))
print("shares a cone with its negative:", common_cone(c, -1 * c))

# Facets of a chamber: one functional forced to zero at a time.
chamber = fan.chambers()[0]
print("\nfacets of the first chamber:")
for sub, normal in facets(g, chamber):
    print(f"   T={sorted(g.edges_of(sub.support))} normal={normal}")

# Membership is exact and closed under the cone operations.
assert cone_contains(g, label, c)
