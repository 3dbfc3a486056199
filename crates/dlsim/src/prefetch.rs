//! The data prefetcher behind Vertical Sparse Scheduling.
//!
//! "We adopt the data prefetch technology, which always keeps the data of
//! the next iteration in memory" (§4.2.2): while iteration *t* trains, the
//! tokens of iteration *t+1* are already known, so Algorithm 1 can compute
//! the prior/delayed gradient split.

/// Wraps a batch iterator and always holds the next batch.
pub struct Prefetcher<T, I: Iterator<Item = T>> {
    inner: I,
    next: Option<T>,
}

impl<T, I: Iterator<Item = T>> Prefetcher<T, I> {
    pub fn new(mut inner: I) -> Self {
        let next = inner.next();
        Prefetcher { inner, next }
    }

    /// The upcoming batch (`D_next` in Algorithm 1), if the stream is not
    /// exhausted.
    pub fn peek_next(&self) -> Option<&T> {
        self.next.as_ref()
    }

    /// Consume and return the current batch, prefetching its successor.
    pub fn advance(&mut self) -> Option<T> {
        let cur = self.next.take();
        self.next = self.inner.next();
        cur
    }
}

impl<T, I: Iterator<Item = T>> Iterator for Prefetcher<T, I> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.advance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_sees_next_before_advance() {
        let mut p = Prefetcher::new([1, 2, 3].into_iter());
        assert_eq!(p.peek_next(), Some(&1));
        assert_eq!(p.advance(), Some(1));
        assert_eq!(p.peek_next(), Some(&2));
        assert_eq!(p.advance(), Some(2));
        assert_eq!(p.peek_next(), Some(&3));
    }

    #[test]
    fn exhaustion() {
        let mut p = Prefetcher::new(std::iter::once(9));
        assert_eq!(p.peek_next(), Some(&9));
        assert_eq!(p.advance(), Some(9));
        assert_eq!(p.peek_next(), None);
        assert_eq!(p.advance(), None);
    }

    #[test]
    fn works_as_iterator() {
        let p = Prefetcher::new(0..5);
        let v: Vec<i32> = p.collect();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_stream() {
        let mut p = Prefetcher::new(std::iter::empty::<u32>());
        assert_eq!(p.peek_next(), None);
        assert_eq!(p.advance(), None);
    }
}
