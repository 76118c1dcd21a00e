//! Interconnect topologies — mesh, torus, concentrated mesh — and the
//! [`Fabric`] abstraction that selects one from a [`NocConfig`].

use allarm_types::config::{FabricKind, NocConfig};
use allarm_types::error::ConfigError;
use allarm_types::ids::NodeId;

/// Coordinates of a router in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (0-based, increases east).
    pub x: u32,
    /// Row (0-based, increases south).
    pub y: u32,
}

/// A 2-D mesh of routers, one per node, using XY dimension-ordered routing.
///
/// # Examples
///
/// ```
/// use allarm_noc::Mesh;
/// use allarm_types::ids::NodeId;
///
/// let mesh = Mesh::new(4, 4);
/// assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(5)), 2);
/// assert_eq!(mesh.hops(NodeId::new(3), NodeId::new(3)), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    width: u32,
    height: u32,
}

impl Mesh {
    /// Creates a `width x height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; [`Mesh::try_new`] returns the
    /// typed error instead.
    pub fn new(width: u32, height: u32) -> Self {
        Self::try_new(width, height).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a `width x height` mesh, rejecting degenerate dimensions
    /// with a typed error.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either dimension is zero.
    pub fn try_new(width: u32, height: u32) -> Result<Self, ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::new(
                "noc.mesh",
                "mesh dimensions must be non-zero",
            ));
        }
        Ok(Mesh { width, height })
    }

    /// Mesh width (columns).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of routers.
    pub fn num_nodes(&self) -> u32 {
        self.width * self.height
    }

    /// Coordinates of a node (row-major numbering).
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the mesh.
    pub fn coord(&self, node: NodeId) -> Coord {
        let idx = node.index() as u32;
        assert!(
            idx < self.num_nodes(),
            "node {node} outside {}-node mesh",
            self.num_nodes()
        );
        Coord {
            x: idx % self.width,
            y: idx / self.width,
        }
    }

    /// Node identifier at given coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn node_at(&self, coord: Coord) -> NodeId {
        assert!(
            coord.x < self.width && coord.y < self.height,
            "coordinate outside mesh"
        );
        NodeId::new((coord.y * self.width + coord.x) as u16)
    }

    /// Manhattan distance between two nodes — the number of links an XY-routed
    /// message traverses.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        let a = self.coord(from);
        let b = self.coord(to);
        a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
    }

    /// The sequence of nodes an XY-routed message visits, including source
    /// and destination.
    pub fn route(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let src = self.coord(from);
        let dst = self.coord(to);
        let mut path = vec![from];
        let mut cur = src;
        // X first...
        while cur.x != dst.x {
            cur.x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(self.node_at(cur));
        }
        // ...then Y.
        while cur.y != dst.y {
            cur.y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(self.node_at(cur));
        }
        path
    }

    /// Average hop count over all ordered pairs of distinct nodes; useful for
    /// sanity checks and capacity planning.
    pub fn mean_hops(&self) -> f64 {
        let n = self.num_nodes();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut pairs = 0u64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += u64::from(self.hops(NodeId::new(a as u16), NodeId::new(b as u16)));
                    pairs += 1;
                }
            }
        }
        total as f64 / pairs as f64
    }
}

/// A 2-D torus: the mesh with wrap-around links on both axes, so each axis
/// contributes `min(d, n - d)` hops instead of `d`.
///
/// # Examples
///
/// ```
/// use allarm_noc::Torus;
/// use allarm_types::ids::NodeId;
///
/// let torus = Torus::new(4, 4);
/// // Opposite corners are 2 hops apart (one wrap per axis), not 6.
/// assert_eq!(torus.hops(NodeId::new(0), NodeId::new(15)), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    width: u32,
    height: u32,
}

impl Torus {
    /// Creates a `width x height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; [`Torus::try_new`] returns the
    /// typed error instead.
    pub fn new(width: u32, height: u32) -> Self {
        Self::try_new(width, height).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a `width x height` torus, rejecting degenerate dimensions
    /// with a typed error.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either dimension is zero.
    pub fn try_new(width: u32, height: u32) -> Result<Self, ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::new(
                "noc.mesh",
                "torus dimensions must be non-zero",
            ));
        }
        Ok(Torus { width, height })
    }

    /// Torus width (columns).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Torus height (rows).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of routers.
    pub fn num_nodes(&self) -> u32 {
        self.width * self.height
    }

    /// Coordinates of a node (row-major numbering, same as the mesh).
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the torus.
    pub fn coord(&self, node: NodeId) -> Coord {
        let idx = node.index() as u32;
        assert!(
            idx < self.num_nodes(),
            "node {node} outside {}-node torus",
            self.num_nodes()
        );
        Coord {
            x: idx % self.width,
            y: idx / self.width,
        }
    }

    /// Hop count with wrap-around: per axis the shorter of the direct and
    /// the wrapped path.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        let a = self.coord(from);
        let b = self.coord(to);
        let dx = a.x.abs_diff(b.x);
        let dy = a.y.abs_diff(b.y);
        dx.min(self.width - dx) + dy.min(self.height - dy)
    }

    /// Average hop count over all ordered pairs of distinct nodes.
    pub fn mean_hops(&self) -> f64 {
        mean_hops_brute_force(self.num_nodes(), |a, b| self.hops(a, b))
    }
}

/// A concentrated mesh: `concentration` nodes share each router of a
/// smaller XY-routed mesh, and same-router traffic takes zero hops.
///
/// # Examples
///
/// ```
/// use allarm_noc::CMesh;
/// use allarm_types::ids::NodeId;
///
/// let cmesh = CMesh::new(2, 2, 4); // 16 nodes on a 2x2 router grid
/// assert_eq!(cmesh.num_nodes(), 16);
/// // Nodes 0 and 3 share router 0.
/// assert_eq!(cmesh.hops(NodeId::new(0), NodeId::new(3)), 0);
/// assert_eq!(cmesh.hops(NodeId::new(0), NodeId::new(15)), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CMesh {
    routers: Mesh,
    concentration: u32,
}

impl CMesh {
    /// Creates an `x` × `y` router grid with `concentration` nodes per
    /// router.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero; [`CMesh::try_new`] returns the typed
    /// error instead.
    pub fn new(x: u32, y: u32, concentration: u32) -> Self {
        Self::try_new(x, y, concentration).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an `x` × `y` router grid with `concentration` nodes per
    /// router, rejecting degenerate geometry with a typed error.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any argument is zero.
    pub fn try_new(x: u32, y: u32, concentration: u32) -> Result<Self, ConfigError> {
        if concentration == 0 {
            return Err(ConfigError::new("noc.concentration", "must be non-zero"));
        }
        Ok(CMesh {
            routers: Mesh::try_new(x, y)?,
            concentration,
        })
    }

    /// The underlying router grid.
    pub fn routers(&self) -> &Mesh {
        &self.routers
    }

    /// Nodes per router.
    pub fn concentration(&self) -> u32 {
        self.concentration
    }

    /// Number of nodes (`routers * concentration`).
    pub fn num_nodes(&self) -> u32 {
        self.routers.num_nodes() * self.concentration
    }

    /// The router a node hangs off (consecutive nodes share a router).
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the fabric.
    pub fn router_of(&self, node: NodeId) -> NodeId {
        let idx = node.index() as u32;
        assert!(
            idx < self.num_nodes(),
            "node {node} outside {}-node concentrated mesh",
            self.num_nodes()
        );
        NodeId::new((idx / self.concentration) as u16)
    }

    /// Hop count between two nodes: the router-grid Manhattan distance,
    /// zero when they share a router.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        self.routers.hops(self.router_of(from), self.router_of(to))
    }

    /// Average hop count over all ordered pairs of distinct nodes
    /// (same-router pairs count as zero-hop pairs).
    pub fn mean_hops(&self) -> f64 {
        mean_hops_brute_force(self.num_nodes(), |a, b| self.hops(a, b))
    }
}

/// Mean hop count over all ordered distinct pairs of `n` nodes.
fn mean_hops_brute_force(n: u32, hops: impl Fn(NodeId, NodeId) -> u32) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let mut total = 0u64;
    let mut pairs = 0u64;
    for a in 0..n {
        for b in 0..n {
            if a != b {
                total += u64::from(hops(NodeId::new(a as u16), NodeId::new(b as u16)));
                pairs += 1;
            }
        }
    }
    total as f64 / pairs as f64
}

/// The topology a [`Network`](crate::Network) routes over, selected from
/// [`NocConfig::fabric`].
///
/// Every variant answers the same two questions — how many nodes, and how
/// many link hops between two of them — which is all the latency/traffic
/// model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// 2-D mesh, XY routing.
    Mesh(Mesh),
    /// 2-D torus (wrap-around mesh).
    Torus(Torus),
    /// Concentrated mesh.
    CMesh(CMesh),
}

impl Fabric {
    /// Builds the fabric a configuration selects.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for degenerate geometry (zero dimensions
    /// or concentration) — the typed path scenario-document loading
    /// surfaces instead of a panic.
    pub fn from_config(config: &NocConfig) -> Result<Self, ConfigError> {
        if config.concentration.get() == 0 {
            return Err(ConfigError::new("noc.concentration", "must be non-zero"));
        }
        Ok(match config.fabric {
            FabricKind::Mesh => Fabric::Mesh(Mesh::try_new(config.mesh_x, config.mesh_y)?),
            FabricKind::Torus => Fabric::Torus(Torus::try_new(config.mesh_x, config.mesh_y)?),
            FabricKind::CMesh => Fabric::CMesh(CMesh::try_new(
                config.mesh_x,
                config.mesh_y,
                config.concentration.get(),
            )?),
        })
    }

    /// The fabric family's name (for reports and diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Fabric::Mesh(_) => "mesh",
            Fabric::Torus(_) => "torus",
            Fabric::CMesh(_) => "cmesh",
        }
    }

    /// Number of nodes the fabric connects.
    pub fn num_nodes(&self) -> u32 {
        match self {
            Fabric::Mesh(m) => m.num_nodes(),
            Fabric::Torus(t) => t.num_nodes(),
            Fabric::CMesh(c) => c.num_nodes(),
        }
    }

    /// Number of links a message from `from` to `to` traverses.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        match self {
            Fabric::Mesh(m) => m.hops(from, to),
            Fabric::Torus(t) => t.hops(from, to),
            Fabric::CMesh(c) => c.hops(from, to),
        }
    }

    /// Coordinates of the router `node` attaches to: the node's own on a
    /// mesh or torus, its shared router's on a concentrated mesh.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the fabric.
    pub(crate) fn router_coord(&self, node: NodeId) -> Coord {
        match self {
            Fabric::Mesh(m) => m.coord(node),
            Fabric::Torus(t) => t.coord(node),
            Fabric::CMesh(c) => c.routers().coord(c.router_of(node)),
        }
    }

    /// Average hop count over all ordered pairs of distinct nodes.
    pub fn mean_hops(&self) -> f64 {
        match self {
            Fabric::Mesh(m) => m.mean_hops(),
            Fabric::Torus(t) => t.mean_hops(),
            Fabric::CMesh(c) => c.mean_hops(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_are_row_major() {
        let mesh = Mesh::new(4, 4);
        assert_eq!(mesh.coord(NodeId::new(0)), Coord { x: 0, y: 0 });
        assert_eq!(mesh.coord(NodeId::new(3)), Coord { x: 3, y: 0 });
        assert_eq!(mesh.coord(NodeId::new(4)), Coord { x: 0, y: 1 });
        assert_eq!(mesh.coord(NodeId::new(15)), Coord { x: 3, y: 3 });
        assert_eq!(mesh.node_at(Coord { x: 2, y: 1 }), NodeId::new(6));
    }

    #[test]
    fn hops_are_manhattan_distance() {
        let mesh = Mesh::new(4, 4);
        assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(15)), 6);
        assert_eq!(mesh.hops(NodeId::new(5), NodeId::new(6)), 1);
        assert_eq!(mesh.hops(NodeId::new(7), NodeId::new(7)), 0);
        // Symmetric.
        assert_eq!(
            mesh.hops(NodeId::new(2), NodeId::new(13)),
            mesh.hops(NodeId::new(13), NodeId::new(2))
        );
    }

    #[test]
    fn route_goes_x_then_y_and_has_hops_plus_one_nodes() {
        let mesh = Mesh::new(4, 4);
        let route = mesh.route(NodeId::new(0), NodeId::new(10));
        assert_eq!(route.first(), Some(&NodeId::new(0)));
        assert_eq!(route.last(), Some(&NodeId::new(10)));
        assert_eq!(
            route.len() as u32,
            mesh.hops(NodeId::new(0), NodeId::new(10)) + 1
        );
        // X-first: 0 -> 1 -> 2 -> 6 -> 10.
        assert_eq!(
            route,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(6),
                NodeId::new(10)
            ]
        );
    }

    #[test]
    fn route_to_self_is_single_node() {
        let mesh = Mesh::new(2, 2);
        assert_eq!(
            mesh.route(NodeId::new(3), NodeId::new(3)),
            vec![NodeId::new(3)]
        );
    }

    /// Closed form for the mean Manhattan distance over ordered *distinct*
    /// node pairs of an `x`×`y` mesh: along one axis of length `n`, the
    /// ordered-pair displacement sum is `n(n²-1)/3`, each combined with
    /// every coordinate pair of the other axis, over `xy(xy-1)` pairs.
    fn mean_hops_closed_form(x: u64, y: u64) -> f64 {
        let total = y * y * (x * (x * x - 1) / 3) + x * x * (y * (y * y - 1) / 3);
        let pairs = x * y * (x * y - 1);
        total as f64 / pairs as f64
    }

    #[test]
    fn mean_hops_of_known_meshes() {
        // For a 1x2 mesh every pair is 1 hop apart.
        assert_eq!(Mesh::new(2, 1).mean_hops(), 1.0);
        // For an n×n mesh the closed form reduces to 2n/3 over distinct
        // ordered pairs: 8/3 ≈ 2.667 at n = 4 (not 2.5 — that would be the
        // mean with self-pairs at a different weighting).
        let mean = Mesh::new(4, 4).mean_hops();
        assert!((mean - 8.0 / 3.0).abs() < 1e-12, "mean hops was {mean}");
        assert_eq!(mean, mean_hops_closed_form(4, 4));
        assert_eq!(Mesh::new(1, 1).mean_hops(), 0.0);
    }

    #[test]
    fn mean_hops_of_rectangular_meshes() {
        // Non-square meshes (a ROADMAP direction for wider machines) follow
        // the same closed form: an 8×2 mesh averages 10/3 hops.
        let mean = Mesh::new(8, 2).mean_hops();
        assert!((mean - 10.0 / 3.0).abs() < 1e-12, "mean hops was {mean}");
        assert_eq!(mean, mean_hops_closed_form(8, 2));
        // Orientation does not matter, and a 1×n path degenerates to the
        // one-dimensional mean (n+1)/3.
        assert_eq!(Mesh::new(2, 8).mean_hops(), mean);
        assert_eq!(Mesh::new(4, 1).mean_hops(), mean_hops_closed_form(4, 1));
        assert!((Mesh::new(4, 1).mean_hops() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_node_panics() {
        Mesh::new(2, 2).coord(NodeId::new(4));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        Mesh::new(0, 4);
    }

    #[test]
    fn zero_dimensions_are_typed_errors_via_try_new() {
        assert_eq!(Mesh::try_new(0, 4).unwrap_err().field(), "noc.mesh");
        assert_eq!(Torus::try_new(4, 0).unwrap_err().field(), "noc.mesh");
        assert_eq!(
            CMesh::try_new(4, 4, 0).unwrap_err().field(),
            "noc.concentration"
        );
        assert_eq!(CMesh::try_new(0, 4, 2).unwrap_err().field(), "noc.mesh");
        let cfg = NocConfig::mesh(0, 4);
        assert_eq!(Fabric::from_config(&cfg).unwrap_err().field(), "noc.mesh");
    }

    #[test]
    fn geometry_accessors() {
        let mesh = Mesh::new(4, 2);
        assert_eq!(mesh.width(), 4);
        assert_eq!(mesh.height(), 2);
        assert_eq!(mesh.num_nodes(), 8);
    }

    #[test]
    fn large_mesh_dimensions_follow_the_closed_form() {
        // The 8×8 and 16×8 grids the scaled machines use.
        let m = Mesh::new(8, 8);
        assert_eq!(m.num_nodes(), 64);
        assert!((m.mean_hops() - mean_hops_closed_form(8, 8)).abs() < 1e-12);
        let m = Mesh::new(16, 8);
        assert_eq!(m.num_nodes(), 128);
        assert!((m.mean_hops() - mean_hops_closed_form(16, 8)).abs() < 1e-12);
    }

    #[test]
    fn torus_hops_take_the_wrap_link() {
        let t = Torus::new(4, 4);
        // Edge to edge along one axis: 1 wrap hop instead of 3 direct.
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(3)), 1);
        // Corner to corner: one wrap per axis.
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(15)), 2);
        // Mid-mesh pairs match the mesh distance.
        assert_eq!(t.hops(NodeId::new(5), NodeId::new(6)), 1);
        assert_eq!(t.hops(NodeId::new(7), NodeId::new(7)), 0);
        // Symmetric.
        assert_eq!(
            t.hops(NodeId::new(2), NodeId::new(13)),
            t.hops(NodeId::new(13), NodeId::new(2))
        );
    }

    /// Closed form for the torus mean over ordered distinct pairs: along a
    /// ring of length `n` the per-offset distance is `min(d, n-d)`, whose
    /// sum over all offsets is `(n/2)²` for even `n` and `(n²-1)/4` for odd
    /// `n`; each axis total combines with every coordinate pair of the
    /// other axis.
    fn torus_mean_closed_form(x: u64, y: u64) -> f64 {
        let ring_sum = |n: u64| {
            if n.is_multiple_of(2) {
                (n / 2) * (n / 2)
            } else {
                (n * n - 1) / 4
            }
        };
        let total = y * y * x * ring_sum(x) + x * x * y * ring_sum(y);
        let pairs = x * y * (x * y - 1);
        total as f64 / pairs as f64
    }

    #[test]
    fn torus_mean_hops_match_the_closed_form() {
        for (x, y) in [(4, 4), (8, 8), (16, 8), (5, 3), (2, 1)] {
            let t = Torus::new(x, y);
            let expected = torus_mean_closed_form(u64::from(x), u64::from(y));
            assert!(
                (t.mean_hops() - expected).abs() < 1e-12,
                "{x}x{y}: {} vs {expected}",
                t.mean_hops()
            );
        }
        // A 5x3 torus averages exactly 2 hops.
        assert_eq!(Torus::new(5, 3).mean_hops(), 2.0);
        // The torus is never worse than the mesh.
        assert!(Torus::new(8, 8).mean_hops() < Mesh::new(8, 8).mean_hops());
    }

    #[test]
    fn cmesh_maps_consecutive_nodes_onto_one_router() {
        let c = CMesh::new(4, 4, 4);
        assert_eq!(c.num_nodes(), 64);
        assert_eq!(c.router_of(NodeId::new(0)), NodeId::new(0));
        assert_eq!(c.router_of(NodeId::new(3)), NodeId::new(0));
        assert_eq!(c.router_of(NodeId::new(4)), NodeId::new(1));
        assert_eq!(c.router_of(NodeId::new(63)), NodeId::new(15));
        // Same router: zero hops. Different routers: the mesh distance.
        assert_eq!(c.hops(NodeId::new(0), NodeId::new(3)), 0);
        assert_eq!(
            c.hops(NodeId::new(0), NodeId::new(63)),
            c.routers().hops(NodeId::new(0), NodeId::new(15))
        );
    }

    /// Closed form for the concentrated mesh over ordered distinct node
    /// pairs: every router pair's mesh distance is taken by `c²` node
    /// pairs, and same-router pairs contribute zero.
    fn cmesh_mean_closed_form(x: u64, y: u64, c: u64) -> f64 {
        let mesh_total = y * y * (x * (x * x - 1) / 3) + x * x * (y * (y * y - 1) / 3);
        let n = x * y * c;
        (c * c * mesh_total) as f64 / (n * (n - 1)) as f64
    }

    #[test]
    fn cmesh_mean_hops_match_the_closed_form() {
        for (x, y, c) in [(4, 4, 4), (2, 2, 4), (8, 4, 2), (4, 4, 1)] {
            let fabric = CMesh::new(x, y, c);
            let expected = cmesh_mean_closed_form(u64::from(x), u64::from(y), u64::from(c));
            assert!(
                (fabric.mean_hops() - expected).abs() < 1e-12,
                "{x}x{y}x{c}: {} vs {expected}",
                fabric.mean_hops()
            );
        }
        // Concentration 1 degenerates to the plain mesh.
        assert_eq!(CMesh::new(4, 4, 1).mean_hops(), Mesh::new(4, 4).mean_hops());
        // Concentrating 64 nodes onto a 4x4 grid beats spreading them 8x8.
        assert!(CMesh::new(4, 4, 4).mean_hops() < Mesh::new(8, 8).mean_hops());
    }

    #[test]
    fn fabric_selection_follows_the_config() {
        let mesh = Fabric::from_config(&NocConfig::mesh(8, 8)).unwrap();
        assert_eq!(mesh.name(), "mesh");
        assert_eq!(mesh.num_nodes(), 64);
        assert_eq!(mesh.mean_hops(), Mesh::new(8, 8).mean_hops());

        let torus = Fabric::from_config(&NocConfig::torus(8, 8)).unwrap();
        assert_eq!(torus.name(), "torus");
        assert_eq!(torus.num_nodes(), 64);
        assert_eq!(torus.hops(NodeId::new(0), NodeId::new(7)), 1);

        let cmesh = Fabric::from_config(&NocConfig::cmesh(4, 4, 4)).unwrap();
        assert_eq!(cmesh.name(), "cmesh");
        assert_eq!(cmesh.num_nodes(), 64);
        assert_eq!(cmesh.hops(NodeId::new(0), NodeId::new(1)), 0);
    }
}
