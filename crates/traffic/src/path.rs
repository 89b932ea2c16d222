//! Multi-hop connection paths across a fabric of routers.
//!
//! The fabric extension (paper §6: "this study must be further extended
//! to a network composed of several MMRs") places admitted connections
//! onto a topology of routers.  This module holds the *pure routing
//! math* — deterministic, hardware-free, unit-testable on its own:
//!
//! * [`HostMap`] — the mapping between flat *host link* ids (what the
//!   admission layer sees as "input/output ports" of the fabric) and
//!   `(node, local host port)` pairs.
//! * [`mesh_route`] — dimension-order (X-then-Y) routes on 2D meshes
//!   and tori; tori take the shorter wrap direction per axis.
//!
//! Dimension-order routing is deterministic and deadlock-free on
//! meshes, which keeps the reserved-path model of Pipelined Circuit
//! Switching intact: the path a connection's routing probe reserves at
//! setup is a pure function of its endpoints.

/// One hop direction on a 2D grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Toward larger X.
    XPlus,
    /// Toward smaller X.
    XMinus,
    /// Toward larger Y.
    YPlus,
    /// Toward smaller Y.
    YMinus,
}

impl Dir {
    /// Stable port index of the direction (0..4) — fabrics map these to
    /// the first `degree` router ports.
    pub fn index(self) -> usize {
        match self {
            Dir::XPlus => 0,
            Dir::XMinus => 1,
            Dir::YPlus => 2,
            Dir::YMinus => 3,
        }
    }

    /// The direction a flit travelling `self` *arrives from* at the
    /// next node.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::XPlus => Dir::XMinus,
            Dir::XMinus => Dir::XPlus,
            Dir::YPlus => Dir::YMinus,
            Dir::YMinus => Dir::YPlus,
        }
    }
}

/// Flat host-link id ↔ `(node, host port slot)` mapping.
///
/// A fabric with `nodes` routers and `host_ports` host links per router
/// exposes `nodes * host_ports` injection (and ejection) links to the
/// admission layer; connection specs address them as plain port
/// numbers, exactly like the single-router workload builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMap {
    /// Router count.
    pub nodes: usize,
    /// Host links per router.
    pub host_ports: usize,
}

impl HostMap {
    /// Router owning a host link.
    pub fn node_of(&self, link: usize) -> usize {
        link / self.host_ports
    }

    /// Host-port slot (0..host_ports) of a host link at its router.
    pub fn slot_of(&self, link: usize) -> usize {
        link % self.host_ports
    }
}

/// Steps along one axis: direction flag (`true` = plus) and hop count.
fn axis_steps(len: usize, from: usize, to: usize, wrap: bool) -> (bool, usize) {
    if !wrap {
        if to >= from {
            (true, to - from)
        } else {
            (false, from - to)
        }
    } else {
        let fwd = (to + len - from) % len;
        let bwd = (from + len - to) % len;
        // Tie breaks toward plus so routes stay a pure function of the
        // endpoints.
        if fwd <= bwd {
            (true, fwd)
        } else {
            (false, bwd)
        }
    }
}

/// Dimension-order route on an `x` by `y` grid from node `src` to node
/// `dst` (row-major ids: `node = gy * x + gx`).  All X hops precede all
/// Y hops; `wrap` enables torus wrap-around links with shorter-way
/// selection per axis.  An empty route means `src == dst`.
pub fn mesh_route(x: usize, y: usize, src: usize, dst: usize, wrap: bool) -> Vec<Dir> {
    assert!(x >= 1 && y >= 1, "degenerate grid");
    assert!(src < x * y && dst < x * y, "node id out of range");
    let (sx, sy) = (src % x, src / x);
    let (dx, dy) = (dst % x, dst / x);
    let (xplus, xn) = axis_steps(x, sx, dx, wrap);
    let (yplus, yn) = axis_steps(y, sy, dy, wrap);
    let mut route = Vec::with_capacity(xn + yn);
    for _ in 0..xn {
        route.push(if xplus { Dir::XPlus } else { Dir::XMinus });
    }
    for _ in 0..yn {
        route.push(if yplus { Dir::YPlus } else { Dir::YMinus });
    }
    route
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk a route from `src`, yielding each node visited after a hop.
    fn walk(x: usize, y: usize, src: usize, route: &[Dir]) -> Vec<usize> {
        let mut out = Vec::with_capacity(route.len());
        let (mut gx, mut gy) = (src % x, src / x);
        for d in route {
            match d {
                Dir::XPlus => gx = (gx + 1) % x,
                Dir::XMinus => gx = (gx + x - 1) % x,
                Dir::YPlus => gy = (gy + 1) % y,
                Dir::YMinus => gy = (gy + y - 1) % y,
            }
            out.push(gy * x + gx);
        }
        out
    }

    #[test]
    fn mesh_routes_are_dimension_ordered() {
        let r = mesh_route(4, 4, 0, 15, false);
        assert_eq!(r.len(), 6);
        let first_y = r.iter().position(|d| matches!(d, Dir::YPlus | Dir::YMinus));
        if let Some(i) = first_y {
            assert!(
                r[i..].iter().all(|d| matches!(d, Dir::YPlus | Dir::YMinus)),
                "X hop after a Y hop in {r:?}"
            );
        }
    }

    #[test]
    fn mesh_routes_terminate_at_destination() {
        for src in 0..16 {
            for dst in 0..16 {
                let r = mesh_route(4, 4, src, dst, false);
                let end = walk(4, 4, src, &r).last().copied().unwrap_or(src);
                assert_eq!(end, dst, "route {src}->{dst}");
                assert_eq!(r.is_empty(), src == dst);
            }
        }
    }

    #[test]
    fn torus_takes_the_shorter_wrap() {
        // 0 -> 3 on a 4-wide torus row: one XMinus hop, not three XPlus.
        let r = mesh_route(4, 1, 0, 3, true);
        assert_eq!(r, vec![Dir::XMinus]);
        // Tie (distance 2 both ways) breaks toward plus.
        let r = mesh_route(4, 1, 0, 2, true);
        assert_eq!(r, vec![Dir::XPlus, Dir::XPlus]);
        for src in 0..12 {
            for dst in 0..12 {
                let r = mesh_route(4, 3, src, dst, true);
                let end = walk(4, 3, src, &r).last().copied().unwrap_or(src);
                assert_eq!(end, dst, "torus route {src}->{dst}");
            }
        }
    }

    #[test]
    fn ring_routes_are_shortest() {
        for src in 0..5 {
            for dst in 0..5 {
                // A ring is a 1D torus: `XPlus` is the forward direction.
                let r = mesh_route(5, 1, src, dst, true);
                assert!(r.len() <= 2, "ring-of-5 route longer than floor(5/2)");
                let end = walk(5, 1, src, &r).last().copied().unwrap_or(src);
                assert_eq!(end, dst);
            }
        }
    }

    #[test]
    fn host_map_round_trips() {
        let hm = HostMap {
            nodes: 6,
            host_ports: 2,
        };
        for link in 0..12 {
            let (n, s) = (hm.node_of(link), hm.slot_of(link));
            assert!(n < 6 && s < 2);
            assert_eq!(n * 2 + s, link);
        }
    }
}
