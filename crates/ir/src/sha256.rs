//! The workspace's one SHA-256 (FIPS 180-4), implemented in-tree
//! because the build must work without crates.io.
//!
//! Store keys, artifact checksums and journal headers all hash through
//! [`Sha256`]. Block compression has two implementations with identical
//! output:
//!
//! - on x86-64 CPUs that report the SHA extensions plus SSSE3 and
//!   SSE4.1 at run time, the `sha256rnds2`/`sha256msg1`/`sha256msg2`
//!   instructions compress each block;
//! - everywhere else the portable FIPS 180-4 compression runs. It is
//!   also the reference the unit tests compare the accelerated path
//!   against.
//!
//! The choice is made once per hasher, from CPU features detected at
//! run time; there is no knob.

/// SHA-256 round constants (FIPS 180-4).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
    /// Compress with the SHA extensions: true only when
    /// `sha_extensions` detected them on this CPU.
    accelerated: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher, compressing with the SHA extensions when
    /// this CPU has them.
    pub fn new() -> Self {
        Self::with_path(sha_extensions())
    }

    /// A hasher that always runs the portable compression: the
    /// reference the accelerated path is tested against.
    #[cfg(test)]
    pub(crate) fn portable() -> Self {
        Self::with_path(false)
    }

    fn with_path(accelerated: bool) -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
            accelerated,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, self.accelerated, &self.buf);
            self.buf_len = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            compress(&mut self.state, self.accelerated, &rest[..whole]);
        }
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the digest.
    pub fn finish(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the bit length in the last 8 bytes
        // of the final block — one block, or two when fewer than 9
        // bytes are free.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let len = if self.buf_len < 56 { 64 } else { 128 };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, self.accelerated, &tail[..len]);
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Whether this CPU has the SHA extensions and the SSSE3 and SSE4.1
/// shuffles the accelerated compression uses.
fn sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compresses whole 64-byte blocks into `state`.
fn compress(state: &mut [u32; 8], accelerated: bool, blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if accelerated {
        // SAFETY: `accelerated` is true only for hashers built by
        // `Sha256::new` after `sha_extensions` detected SHA, SSSE3 and
        // SSE4.1 on this CPU.
        unsafe { x86::compress_blocks(state, blocks) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = accelerated;
    for block in blocks.chunks_exact(64) {
        compress_portable(state, block);
    }
}

/// The portable FIPS 180-4 compression of one 64-byte block.
fn compress_portable(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::K;

    /// Compresses the whole 64-byte blocks of `blocks` with the SHA
    /// extensions (a trailing partial block is ignored).
    ///
    /// The state is kept as the two lane groups `sha256rnds2` works on,
    /// ABEF and CDGH; each block runs 16 groups of four rounds, the
    /// first four on the loaded message words and the rest on words
    /// `sha256msg1`/`sha256msg2` schedule in a four-register ring.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSSE3 and SSE4.1.
    // SAFETY: the caller guarantees the target features; every load and
    // store is unaligned and stays inside `state` (two 16-byte halves),
    // `K` (16 groups of four) or the current 64-byte block.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order of each 32-bit word: big-endian message words.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
            ];
            for group in 0..16 {
                let slot = group % 4;
                if group >= 4 {
                    // W[t..t+4] from W[t-16..t): msg1 adds σ0, the
                    // alignr picks W[t-7..t-3), msg2 adds σ1.
                    let s = _mm_sha256msg1_epu32(w[slot], w[(slot + 1) % 4]);
                    let s =
                        _mm_add_epi32(s, _mm_alignr_epi8(w[(slot + 3) % 4], w[(slot + 2) % 4], 4));
                    w[slot] = _mm_sha256msg2_epu32(s, w[(slot + 3) % 4]);
                }
                let k = _mm_loadu_si128(K.as_ptr().add(4 * group).cast());
                let wk = _mm_add_epi32(w[slot], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
    }
}

/// Hashes a byte string in one call.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// Appends `bytes` to `out` as lowercase hex, two digits per byte.
pub fn push_hex(out: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0x0f)]));
    }
}

/// Renders a digest as lowercase hex.
pub fn hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    push_hex(&mut s, digest);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A named hasher constructor.
    type Path = (&'static str, fn() -> Sha256);

    /// The hashers under test: the portable reference, plus the
    /// accelerated path when this CPU has the SHA extensions.
    fn hashers() -> Vec<Path> {
        let mut paths: Vec<Path> = vec![("portable", Sha256::portable)];
        if sha_extensions() {
            paths.push(("sha-extensions", Sha256::new));
        }
        let names: Vec<&str> = paths.iter().map(|(n, _)| *n).collect();
        println!("sha256 compressions tested: {}", names.join(", "));
        paths
    }

    fn digest(make: fn() -> Sha256, data: &[u8]) -> String {
        let mut h = make();
        h.update(data);
        hex(&h.finish())
    }

    /// Deterministic test bytes (xorshift).
    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn fips_180_4_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, make) in hashers() {
            for (data, want) in vectors {
                assert_eq!(digest(make, data), want, "{name}, {} bytes", data.len());
            }
        }
    }

    #[test]
    fn paths_agree_on_every_length() {
        let data = bytes(4097, 0x5eed);
        let lengths = (0..=300).chain(4095..=4097);
        for len in lengths {
            let want = digest(Sha256::portable, &data[..len]);
            for (name, make) in hashers() {
                assert_eq!(digest(make, &data[..len]), want, "{name}, length {len}");
            }
            assert_eq!(hex(&sha256(&data[..len])), want, "sha256(), length {len}");
        }
    }

    #[test]
    fn split_updates_match_oneshot() {
        let data = bytes(1000, 0xfeed);
        let oneshot = digest(Sha256::portable, &data);
        for (name, make) in hashers() {
            for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
                let mut h = make();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(hex(&h.finish()), oneshot, "{name}, split at {split}");
            }
            // Random cut points, empty updates included.
            for round in 0..32 {
                let mut h = make();
                let mut at = 0;
                for cut in bytes(256, round + 1).into_iter().cycle() {
                    if at == data.len() {
                        break;
                    }
                    let step = (usize::from(cut) % 130).min(data.len() - at);
                    h.update(&data[at..at + step]);
                    at += step;
                }
                assert_eq!(hex(&h.finish()), oneshot, "{name}, round {round}");
            }
        }
    }

    #[test]
    fn hex_is_lowercase_two_digits_per_byte() {
        assert_eq!(hex(&[0x00, 0x0f, 0xa0, 0xff]), "000fa0ff");
        assert_eq!(hex(&[]), "");
        let mut s = String::from("x");
        push_hex(&mut s, &1.5f64.to_bits().to_be_bytes());
        assert_eq!(s, format!("x{:016x}", 1.5f64.to_bits()));
    }
}
