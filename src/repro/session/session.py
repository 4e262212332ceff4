"""Session assembly: topology + sites + streams + capacities.

:func:`build_session` reproduces the paper's experimental setup in one
call: select PoPs on a backbone for the N sites, draw per-site capacities
from a :class:`~repro.session.capacity.CapacityModel`, create one camera
(hence one published stream) per capacity-assigned stream slot, and a
fixed display array per site.  The resulting :class:`TISession` exposes
the pairwise RP latency matrix the overlay layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SessionError
from repro.fov.camera import camera_ring
from repro.session.capacity import CapacityAssignment, CapacityModel
from repro.session.entities import Camera3D, Display3D, RendezvousPoint, Site
from repro.session.streams import StreamDescriptor, StreamId, StreamRegistry
from repro.topology.dense import DenseCostMatrix
from repro.topology.graph import Topology
from repro.topology.placement import place_sites
from repro.util.rng import RngStream


@dataclass
class SessionConfig:
    """Knobs of :func:`build_session`."""

    n_sites: int = 4
    displays_per_site: int = 4
    placement: str = "random"
    camera_ring_radius: float = 3.0
    #: Array backend for the session's dense structures ("auto" |
    #: "python" | "numpy"); see :mod:`repro.core.backend`.  "auto"
    #: consults ``TELE3D_BACKEND`` and falls back to numpy-if-importable.
    backend: str = "auto"

    def __post_init__(self) -> None:
        # Local import: repro.core.problem imports this module.
        from repro.core.backend import check_backend_name

        if self.n_sites < 1:
            raise SessionError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.displays_per_site < 1:
            raise SessionError(
                f"displays_per_site must be >= 1, got {self.displays_per_site}"
            )
        check_backend_name(self.backend)


@dataclass
class TISession:
    """A fully-assembled multi-site 3DTI session.

    Attributes
    ----------
    topology:
        The WAN backbone the RPs sit on.
    sites:
        Site objects indexed 0..N-1 (site ``i`` is the paper's ``H_i``).
    registry:
        Namespace of every published stream ``s_j^q``.
    """

    topology: Topology
    sites: list[Site]
    registry: StreamRegistry
    #: Array backend for the dense structures derived from this session.
    backend: str = "auto"
    _cost_matrix: dict[int, dict[int, float]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # Local import: repro.core.problem imports this module.
        from repro.core.backend import resolve_backend

        self._array_backend = resolve_backend(self.backend)
        seen_pops: set[str] = set()
        for expected, site in enumerate(self.sites):
            if site.index != expected:
                raise SessionError(
                    f"site list must be indexed contiguously; position {expected} "
                    f"holds site {site.index}"
                )
            if site.pop_id in seen_pops:
                raise SessionError(f"two sites share PoP {site.pop_id!r}")
            seen_pops.add(site.pop_id)
        # ``_dense_costs`` is the authoritative latency store; the dict
        # field is kept only when a caller injected one (legacy path) and
        # is otherwise derived on demand — materializing the O(N²) dict
        # up front dominated assembly time and memory at N >= 1024.
        if not self._cost_matrix:
            pop_matrix = self.topology.dense_cost_matrix(
                [s.pop_id for s in self.sites]
            )
            rows = [list(pop_matrix.row(i)) for i in range(len(self.sites))]
            self._dense_costs = DenseCostMatrix(
                rows, backend=self._array_backend
            )
        else:
            self._dense_costs = DenseCostMatrix.from_nested(
                self._cost_matrix, nodes=range(len(self.sites))
            )

    # -- accessors ---------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of sites (the paper's N)."""
        return len(self.sites)

    def site(self, index: int) -> Site:
        """Site ``H_index``."""
        try:
            return self.sites[index]
        except IndexError:
            raise SessionError(f"no site with index {index}") from None

    @property
    def array_backend(self):
        """The resolved array backend for this session's dense structures."""
        return self._array_backend

    def cost_ms(self, a: int, b: int) -> float:
        """One-way RP-to-RP latency between sites ``a`` and ``b``."""
        n = len(self.sites)
        if (
            not isinstance(a, int)
            or not isinstance(b, int)
            or not (0 <= a < n and 0 <= b < n)
        ):
            raise SessionError(f"no cost entry for sites {a}->{b}")
        return self._dense_costs.edge_cost(a, b)

    def cost_matrix(self) -> dict[int, dict[int, float]]:
        """A copy of the site-indexed latency matrix (built on demand)."""
        if self._cost_matrix:
            return {a: dict(row) for a, row in self._cost_matrix.items()}
        rows = self._dense_costs.rows()
        n = len(self.sites)
        return {a: {b: rows[a][b] for b in range(n)} for a in range(n)}

    def dense_cost_matrix(self) -> DenseCostMatrix:
        """The shared site-indexed dense latency matrix (read-only)."""
        return self._dense_costs

    def inbound_limit(self, site: int) -> int:
        """``I_site`` in stream units."""
        return self.site(site).rp.inbound_limit

    def outbound_limit(self, site: int) -> int:
        """``O_site`` in stream units."""
        return self.site(site).rp.outbound_limit

    def total_streams(self) -> int:
        """Total number of published streams across all sites."""
        return len(self.registry)

    def __str__(self) -> str:
        return (
            f"TISession(N={self.n_sites}, streams={self.total_streams()}, "
            f"topology={self.topology.name})"
        )


def build_session(
    topology: Topology,
    capacity_model: CapacityModel,
    rng: RngStream,
    config: SessionConfig | None = None,
) -> TISession:
    """Assemble a session on ``topology`` per the paper's setup.

    The RNG is split into independent sub-streams for placement and
    capacity draws so the two are not entangled across settings.
    """
    config = config or SessionConfig()
    placement_rng = rng.spawn("placement")
    capacity_rng = rng.spawn("capacity")
    pops = place_sites(
        topology, config.n_sites, rng=placement_rng, strategy=config.placement
    )
    assignments = capacity_model.assign(config.n_sites, capacity_rng)
    registry = StreamRegistry()
    sites = []
    for index, (pop_id, assignment) in enumerate(zip(pops, assignments)):
        sites.append(
            _build_site(index, pop_id, assignment, registry, config)
        )
    return TISession(
        topology=topology,
        sites=sites,
        registry=registry,
        backend=config.backend,
    )


def _build_site(
    index: int,
    pop_id: str,
    assignment: CapacityAssignment,
    registry: StreamRegistry,
    config: SessionConfig,
) -> Site:
    """Create one site: RP, camera ring (one stream each), display array."""
    rp = RendezvousPoint(
        site=index,
        pop_id=pop_id,
        inbound_limit=assignment.inbound_limit,
        outbound_limit=assignment.outbound_limit,
    )
    poses = camera_ring(assignment.n_streams, radius=config.camera_ring_radius)
    cameras = []
    for q, pose in enumerate(poses):
        stream_id = StreamId(site=index, index=q)
        camera_id = f"cam-{index}-{q}"
        registry.register(StreamDescriptor(stream_id=stream_id, camera_id=camera_id))
        cameras.append(Camera3D(camera_id=camera_id, stream_id=stream_id, pose=pose))
    displays = [
        Display3D(display_id=f"disp-{index}-{d}", site=index)
        for d in range(config.displays_per_site)
    ]
    return Site(index=index, pop_id=pop_id, rp=rp, cameras=cameras, displays=displays)
