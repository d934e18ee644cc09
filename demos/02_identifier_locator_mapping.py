# Walk the identifier-locator mapping control plane: naming, registration,
# resolution from anywhere, mobility updates, indirect bindings, and the
# 8-bit local short names of a constrained domain.
from icnsim import (
    Gateway, NamingService, NetworkAddress, ScenarioParams, Target,
    build_ilm_tree, containerize, generate_topology,
    register, register_indirect, resolve, update_binding,
)
from icnsim.ilm import dump_table

params = ScenarioParams(scenario="embb", n_devices=32)
g = generate_topology(params, seed=1)
h = containerize(g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
tree = build_ilm_tree(h)
print("resolver tree levels:", [len(row) for row in tree.levels], "+ nonlocal root")

# Register a camera stream at a leaf resolver; the record lands in the
# root's table, which every resolver in the tree reads, so any of them can
# answer for it.
leaf = tree.levels[0][0]
na1 = NetworkAddress.parse("10.0.0.9")
cam = register(leaf, "urn:stream:cam-7", na1)
print("resolved at the root:", [str(a) for a in resolve(tree.root, cam)])
print("resolved at a far leaf:", [str(a) for a in resolve(tree.levels[0][-1], cam)])

# Mobility: swap the binding and watch every resolver agree.
na2 = NetworkAddress.parse("10.0.3.20")
update_binding(leaf, cam, "add", na2)
update_binding(tree.root, cam, "remove", na1)
print("after the move:", [str(a) for a in resolve(leaf, cam)])

# Indirect binding: a data identifier that maps to its device identifier.
dev = register(leaf, "urn:device:sensor-4", NetworkAddress.parse("10.0.1.4"))
reading = register_indirect(leaf, "urn:data:sensor-4:temp", dev)
print("indirect chase:", [str(a) for a in resolve(tree.root, reading)])

# A machine-type local domain keeps 8-bit short names behind its gateway.
gw = Gateway(NamingService())
lid = gw.register_local("urn:device:sensor-4")
print("local short name:", lid, "->", gw.translate(lid).hex[:12], "..")
print("round trip:", gw.translate_back(gw.translate(lid)) == lid)

print("\nroot table dump:")
print(dump_table(tree.root))
