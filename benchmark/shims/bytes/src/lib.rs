//! std-only stand-in for the `bytes` subset the SyD codecs use:
//! [`Buf`] on `&[u8]` and [`BufMut`] on `Vec<u8>`.

/// Read cursor over a contiguous byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skips `cnt` bytes.
    ///
    /// # Panics
    /// Panics when `cnt > self.remaining()`, as the real crate does.
    fn advance(&mut self, cnt: usize);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.len(),
            "cannot advance past `remaining`: {cnt} > {}",
            self.len()
        );
        *self = &self[cnt..];
    }
}

/// Append-only byte sink.
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends a `u64`, little endian.
    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_u8(&mut self, n: u8) {
        self.push(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buf_advances_over_a_slice() {
        let mut s: &[u8] = &[1, 2, 3];
        assert_eq!(s.remaining(), 3);
        s.advance(2);
        assert_eq!(s, &[3]);
        s.advance(1);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn advancing_past_the_end_panics() {
        let mut s: &[u8] = &[1];
        s.advance(2);
    }

    #[test]
    fn buf_mut_appends_little_endian() {
        let mut v = Vec::new();
        v.put_u8(0xAB);
        v.put_slice(&[1, 2]);
        v.put_u64_le(0x0807_0605_0403_0201);
        assert_eq!(v, [0xAB, 1, 2, 1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
