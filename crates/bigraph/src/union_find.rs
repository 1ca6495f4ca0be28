//! Disjoint-set forest, used to enumerate connected components of
//! k-bitrusses when extracting communities and to build the nested
//! community forest of `bitruss-core`'s `BitrussHierarchy`.

/// Union-find with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of the set containing `x`.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        self.merge(a, b).1
    }

    /// Merges the sets containing `a` and `b`, returning the surviving
    /// representative and whether a merge actually happened. The returned
    /// root is what [`Self::find`] yields for both elements afterwards.
    /// `find` on a root returns at once, so callers that already hold both
    /// roots (the hierarchy forest build reads per-root state first) pass
    /// them and link without a second path walk.
    pub fn merge(&mut self, a: u32, b: u32) -> (u32, bool) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return (ra, false);
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.components -= 1;
        (ra, true)
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }

    /// Current number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_unions() {
        let mut uf = UnionFind::new(6);
        assert_eq!(uf.num_components(), 6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.num_components(), 4);
        assert_eq!(uf.set_size(1), 3);
    }

    #[test]
    fn everything_merges_to_one() {
        let mut uf = UnionFind::new(100);
        for i in 1..100 {
            uf.union(0, i);
        }
        assert_eq!(uf.num_components(), 1);
        assert_eq!(uf.set_size(57), 100);
        for i in 0..100 {
            assert_eq!(uf.find(i), uf.find(0));
        }
    }

    #[test]
    fn merge_reports_the_surviving_root() {
        let mut uf = UnionFind::new(5);
        let (r, merged) = uf.merge(0, 1);
        assert!(merged);
        assert_eq!(r, uf.find(0));
        assert_eq!(r, uf.find(1));
        let (r2, merged2) = uf.merge(1, 0);
        assert!(!merged2);
        assert_eq!(r2, r);
        // Union by size: the bigger {0,1} component's root survives.
        let (r3, _) = uf.merge(2, 0);
        assert_eq!(r3, r);
    }

    #[test]
    fn empty() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_components(), 0);
    }
}
