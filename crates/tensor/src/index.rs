//! Index-set operations of Vertical Sparse Scheduling (Algorithm 1) that
//! have a life outside the fused split (`embrace_core::vertical_split`
//! runs on [`crate::coalesce_split`]): `UNIQUE` and intersection, which
//! the Table 3 statistics are measured with.
//!
//! Both work on **sorted, deduplicated** `Vec<u32>` sets ([`IndexSet`]),
//! so intersection is a linear merge.

/// A sorted, duplicate-free set of row indices.
pub type IndexSet = Vec<u32>;

/// `UNIQUE`: sort and deduplicate arbitrary token ids into an [`IndexSet`].
pub fn unique_sorted(tokens: &[u32]) -> IndexSet {
    let mut v = tokens.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Intersection of two sorted sets (linear merge).
pub fn intersect(a: &[u32], b: &[u32]) -> IndexSet {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_sorts_and_dedups() {
        assert_eq!(unique_sorted(&[5, 1, 5, 0, 1]), vec![0, 1, 5]);
        assert_eq!(unique_sorted(&[]), Vec::<u32>::new());
    }

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[2, 3, 7, 9]), vec![3, 7]);
        assert_eq!(intersect(&[1, 2], &[]), Vec::<u32>::new());
        assert_eq!(intersect(&[1, 2], &[1, 2]), vec![1, 2]);
    }
}
