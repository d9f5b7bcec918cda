//! The 64-byte echo request: sequence number, due time, seeded payload and
//! a checksum over all three. The server echoes frames verbatim, so a reply
//! that fails [`verify`] is a corrupted or misrouted reply.

pub const FRAME: usize = 64;
const PAYLOAD: std::ops::Range<usize> = 16..56;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Build the frame for request `seq`, due at `due_ns`, with payload bytes
/// expanded from `payload_seed`.
pub fn encode(seq: u64, due_ns: u64, payload_seed: u64) -> [u8; FRAME] {
    let mut f = [0u8; FRAME];
    f[0..8].copy_from_slice(&seq.to_le_bytes());
    f[8..16].copy_from_slice(&due_ns.to_le_bytes());
    let mut r = crate::rng::Rng::new(payload_seed);
    for chunk in f[PAYLOAD].chunks_mut(8) {
        chunk.copy_from_slice(&r.next_u64().to_le_bytes());
    }
    let sum = fnv1a(&f[..PAYLOAD.end]);
    f[PAYLOAD.end..].copy_from_slice(&sum.to_le_bytes());
    f
}

pub fn seq_of(f: &[u8]) -> u64 {
    u64::from_le_bytes(f[0..8].try_into().expect("frame has 8 seq bytes"))
}

pub fn due_of(f: &[u8]) -> u64 {
    u64::from_le_bytes(f[8..16].try_into().expect("frame has 8 due bytes"))
}

/// A reply is good when it is the frame that was sent as `expect_seq`:
/// right sequence number, intact checksum.
pub fn verify(f: &[u8], expect_seq: u64) -> bool {
    f.len() == FRAME
        && seq_of(f) == expect_seq
        && f[PAYLOAD.end..] == fnv1a(&f[..PAYLOAD.end]).to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let f = encode(41, 123_456_789, 7);
        assert_eq!(seq_of(&f), 41);
        assert_eq!(due_of(&f), 123_456_789);
        assert!(verify(&f, 41));
    }

    #[test]
    fn any_corrupted_byte_is_caught() {
        let f = encode(41, 123_456_789, 7);
        for i in 0..FRAME {
            let mut g = f;
            g[i] ^= 0x01;
            assert!(!verify(&g, 41), "flip of byte {i} went unnoticed");
        }
    }

    #[test]
    fn reply_to_another_request_is_caught() {
        assert!(!verify(&encode(42, 0, 7), 41));
        assert!(!verify(&encode(41, 0, 7)[..63], 41));
    }

    #[test]
    fn payload_follows_the_seed() {
        assert_eq!(encode(1, 2, 3), encode(1, 2, 3));
        assert_ne!(encode(1, 2, 3), encode(1, 2, 4));
    }
}
