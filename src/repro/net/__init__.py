"""Network substrate: pluggable fabrics and IVY's remote-operation layer.

Layering (bottom-up), mirroring the prototype:

- `repro.net.fabric` — the transmission-medium abstraction (`Fabric`,
  whose `send` is the one send path, one `FabricStats` shape,
  `make_fabric` over the `FABRIC_BACKENDS` registry) with two backends:
  `repro.net.fabric.ring`, the 12 Mbit/s shared-medium token ring where
  transmissions from all nodes serialise and broadcasts are heard by
  snooping, and `repro.net.fabric.switched`, a crossbar-switched
  point-to-point interconnect with concurrent disjoint links and
  multicast-tree broadcast.  A backend supplies only its medium
  booking and occupancy.
- `repro.net.transport` — reliable request/reply with the paper's
  "resend replies only when necessary" retransmission philosophy:
  duplicate requests are answered from a reply cache, execution is
  at-most-once, and every message piggybacks the sender's load hint.
  `request`, `broadcast` and `multicast` share one send-and-wait body.
  Backend-agnostic: identical on either fabric.
- `repro.net.remoteop` — IVY's remote operation module: registered
  operation handlers, the *forwarding* mechanism (a request hops
  processor-to-processor and only the final executor replies to the
  origin — essential for the dynamic distributed manager), and
  broadcast with the paper's three reply schemes (any / all / none).
  Each call is one ``rpc:<op>`` span around the transport's call.
"""

from repro.net.fabric import FABRIC_BACKENDS, Fabric, FabricStats, LinkStats, make_fabric
from repro.net.fabric.ring import TokenRing
from repro.net.fabric.switched import SwitchedFabric
from repro.net.packet import BROADCAST, Message
from repro.net.transport import Transport
from repro.net.remoteop import Forward, RemoteOp

__all__ = [
    "BROADCAST",
    "FABRIC_BACKENDS",
    "Fabric",
    "FabricStats",
    "Forward",
    "LinkStats",
    "Message",
    "RemoteOp",
    "SwitchedFabric",
    "TokenRing",
    "Transport",
    "make_fabric",
]
