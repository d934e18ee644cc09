# Walk the identifier-locator mapping control plane: naming, registration,
# resolution, mobility updates, indirect bindings, and the 8-bit local short
# names of a constrained domain.
from icnsim import (
    Gateway, NamingService, NetworkAddress, Resolver,
    register, register_indirect, resolve, update_binding,
)
from icnsim.ilm import dump_table

# One resolver per run: the naming service plus the one record table that
# every node registers into and resolves from.
res = Resolver()

# Register a camera stream and resolve it.
na1 = NetworkAddress.parse("10.0.0.9")
cam = register(res, "urn:stream:cam-7", na1)
print("resolved:", [str(a) for a in resolve(res, cam)])

# Mobility: bind the new address, then drop the old one.
na2 = NetworkAddress.parse("10.0.3.20")
update_binding(res, cam, "add", na2)
print("during the move:", [str(a) for a in sorted(resolve(res, cam))])
update_binding(res, cam, "remove", na1)
print("after the move:", [str(a) for a in resolve(res, cam)])

# Indirect binding: a data identifier that maps to its device identifier.
dev = register(res, "urn:device:sensor-4", NetworkAddress.parse("10.0.1.4"))
reading = register_indirect(res, "urn:data:sensor-4:temp", dev)
print("indirect chase:", [str(a) for a in resolve(res, reading)])

# A machine-type local domain keeps 8-bit short names behind its gateway.
# Runs do not model gateways; this is the library model on its own.
gw = Gateway(NamingService())
lid = gw.register_local("urn:device:sensor-4")
print("local short name:", lid, "->", gw.translate(lid).hex[:12], "..")
print("round trip:", gw.translate_back(gw.translate(lid)) == lid)

print("\nrecord table dump:")
print(dump_table(res))
