//! The generator's output, pinned and cross-checked.
//!
//! * FNV-1a digests of the seven arrays of two generated systems (and of
//!   the true solution behind their known terms): any change to a
//!   stream's key, a draw or the rounding of the right-hand side moves
//!   them.
//! * Streamed generation ([`Generator::generate_tiled`]) equals the
//!   in-memory generator byte for byte for every attitude pattern ×
//!   instrument pattern × right-hand-side mode, at two tile sizes.
//!
//! Both run in release as well as debug (integer casts may compile
//! differently there).

use std::path::PathBuf;

use gaia_sparse::{
    write_tiles, AttitudePattern, Generator, GeneratorConfig, InstrumentPattern, Rhs, SparseSystem,
    SystemLayout, TiledSystem,
};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, vals: &[f64]) {
        vals.iter()
            .for_each(|v| self.bytes(&v.to_bits().to_le_bytes()));
    }

    fn u32s(&mut self, vals: &[u32]) {
        vals.iter().for_each(|v| self.bytes(&v.to_le_bytes()));
    }
}

/// Digest of the seven arrays, in storage order, then of the truth.
fn digest(sys: &SparseSystem, truth: Option<&[f64]>) -> (u64, u64) {
    let mut h = Fnv::new();
    h.f64s(sys.values_astro());
    h.f64s(sys.values_att());
    h.f64s(sys.values_instr());
    h.f64s(sys.values_glob());
    h.u32s(sys.matrix_index_att());
    h.u32s(sys.instr_col());
    h.f64s(sys.known_terms());
    let mut t = Fnv::new();
    t.f64s(truth.unwrap_or_default());
    (h.0, t.0)
}

fn pinned(cfg: GeneratorConfig) -> (u64, u64) {
    let (sys, truth) = Generator::new(cfg).generate_with_truth();
    assert_eq!(
        sys.known_terms(),
        Generator::new(cfg).generate().known_terms()
    );
    digest(&sys, truth.as_deref())
}

#[test]
fn generator_pin_medium_1000_stars_default_config() {
    let layout = SystemLayout {
        n_stars: 1_000,
        ..SystemLayout::medium()
    };
    let got = pinned(GeneratorConfig::new(layout).seed(7));
    assert_eq!(
        got,
        (0x0df7_b10f_d50a_e38b, 0x0d8e_af41_d087_6626),
        "{got:x?}"
    );
}

#[test]
fn generator_pin_small_scan_law_grouped() {
    let cfg = GeneratorConfig::new(SystemLayout::small())
        .seed(7)
        .attitude(AttitudePattern::ScanLaw { revolutions: 6 })
        .instrument(InstrumentPattern::Grouped);
    let got = pinned(cfg);
    assert_eq!(
        got,
        (0x4e5b_587f_f00f_62b9, 0x0070_a144_336f_fc23),
        "{got:x?}"
    );
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gaia-gen-pins-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn streamed_generation_equals_in_memory_for_every_pattern() {
    let layout = SystemLayout {
        n_stars: 9,
        n_instr_params: 13,
        ..SystemLayout::tiny()
    };
    let attitudes = [
        AttitudePattern::LinearSweep,
        AttitudePattern::ScanLaw { revolutions: 3 },
    ];
    let instruments = [InstrumentPattern::Uniform, InstrumentPattern::Grouped];
    let rhss = [
        Rhs::Random,
        Rhs::FromTrueSolution { noise_sigma: 0.0 },
        Rhs::FromTrueSolution { noise_sigma: 1e-6 },
    ];
    for (i, (&attitude, &instrument, &rhs)) in attitudes
        .iter()
        .flat_map(|a| instruments.iter().map(move |i| (a, i)))
        .flat_map(|(a, i)| rhss.iter().map(move |r| (a, i, r)))
        .enumerate()
    {
        let cfg = GeneratorConfig::new(layout)
            .seed(100 + i as u64)
            .attitude(attitude)
            .instrument(instrument)
            .rhs(rhs);
        let case = format!("{attitude:?} × {instrument:?} × {rhs:?}");
        let sys = Generator::new(cfg).generate();
        for tile_stars in [2u64, 4] {
            let (dir_mem, dir_str) = (tmp_dir("mem"), tmp_dir("str"));
            let m_mem = write_tiles(&sys, &dir_mem, tile_stars).unwrap();
            let m_str = Generator::new(cfg)
                .generate_tiled(&dir_str, tile_stars)
                .unwrap();
            assert_eq!(m_mem.tiles.len(), m_str.tiles.len(), "{case}");
            for (a, b) in m_mem.tiles.iter().zip(&m_str.tiles) {
                assert_eq!((&a.checksum, a.bytes), (&b.checksum, b.bytes), "{case}");
                let name = gaia_sparse::TileManifest::tile_file_name(a.index);
                let (fa, fb) = (dir_mem.join(&name), dir_str.join(&name));
                assert!(
                    std::fs::read(fa).unwrap() == std::fs::read(fb).unwrap(),
                    "{case}: tile {name} at {tile_stars} stars per tile"
                );
            }
            assert_eq!(
                m_mem.known_terms_checksum, m_str.known_terms_checksum,
                "{case}"
            );
            assert_eq!(m_mem.matrix_fingerprint, m_str.matrix_fingerprint, "{case}");
            let back = TiledSystem::open(&dir_str).unwrap().assemble().unwrap();
            assert_eq!(digest(&back, None), digest(&sys, None), "{case}");
            std::fs::remove_dir_all(&dir_mem).ok();
            std::fs::remove_dir_all(&dir_str).ok();
        }
    }
}
