//! Cross-engine agreement: the flat-table-plus-imprints system, the
//! file-based baseline (indexed and unindexed, sorted and unsorted) and
//! the block-based baseline must each return the brute-force model's
//! result set for the same queries — the precondition for every
//! performance comparison in EXPERIMENTS.md to be meaningful.

use lidardb::prelude::*;
use lidardb::write_scene_tiles;
use lidardb_test_support::{Model, ScratchDir};

/// Canonical multiset key for a result point (quantised to laz-lite's cm
/// precision so float paths compare equal).
fn key(x: f64, y: f64) -> (i64, i64) {
    ((x * 100.0).round() as i64, (y * 100.0).round() as i64)
}

struct Setup {
    pc: PointCloud,
    /// The loaded records, for the brute-force answer.
    model: Model,
    filestore_plain: FileStore,
    filestore_indexed: FileStore,
    blockstore: BlockStore,
    env: Envelope,
    /// The file stores read their tiles at query time.
    _scratch: [ScratchDir; 2],
}

fn setup(test: &str) -> Setup {
    let scene = Scene::generate(SceneConfig {
        seed: 99,
        origin: (50_000.0, 60_000.0),
        extent_m: 500.0,
    });
    let scratch = [
        ScratchDir::new(&format!("agree_{test}_plain")),
        ScratchDir::new(&format!("agree_{test}_indexed")),
    ];
    let (dir_a, dir_b) = (scratch[0].path(), scratch[1].path());
    let paths = write_scene_tiles(&scene, dir_a, 3, 0.6, Compression::None).unwrap();
    write_scene_tiles(&scene, dir_b, 3, 0.6, Compression::LazLite).unwrap();

    let mut pc = PointCloud::new();
    Loader::new(LoadMethod::Binary)
        .load_files(&mut pc, &paths)
        .unwrap();

    let filestore_plain = FileStore::open(dir_a).unwrap();
    let mut filestore_indexed = FileStore::open(dir_b).unwrap();
    filestore_indexed.sort_files(Curve::Hilbert).unwrap();
    filestore_indexed.build_indexes().unwrap();

    let mut records = Vec::new();
    for p in &paths {
        records.extend(lidardb::las::read_las_file(p).unwrap().1);
    }
    let blockstore = BlockStore::build(&records, 512, Curve::Hilbert).unwrap();

    Setup {
        pc,
        model: Model::new(records),
        filestore_plain,
        filestore_indexed,
        blockstore,
        env: *scene.envelope(),
        _scratch: scratch,
    }
}

fn sorted_keys(pts: impl IntoIterator<Item = (f64, f64)>) -> Vec<(i64, i64)> {
    let mut v: Vec<_> = pts.into_iter().map(|(x, y)| key(x, y)).collect();
    v.sort_unstable();
    v
}

impl Setup {
    /// The model's answer to `pred` and ours, as sorted keys; they must
    /// agree.
    fn expect(&self, pred: &SpatialPredicate) -> Vec<(i64, i64)> {
        let (xs, ys) = (
            self.pc.f64_column("x").unwrap(),
            self.pc.f64_column("y").unwrap(),
        );
        let ours = self.pc.select(pred).unwrap();
        let ours = sorted_keys(ours.rows.iter().map(|&i| (xs[i], ys[i])));
        let model = self
            .model
            .select(Some(pred), &[])
            .into_iter()
            .map(|i| self.model.record(i));
        let model = sorted_keys(model.map(|r| (r.x, r.y)));
        assert_eq!(
            ours, model,
            "imprints + refinement vs the model for {pred:?}"
        );
        model
    }
}

#[test]
fn all_engines_agree_on_windows() {
    let s = setup("windows");
    let windows = [
        (0.1, 0.1, 0.3, 0.25),
        (0.0, 0.0, 1.0, 1.0),     // everything
        (0.45, 0.45, 0.55, 0.55), // small center window
        (0.9, 0.9, 0.99, 0.99),
        (2.0, 2.0, 3.0, 3.0), // empty (outside)
    ];
    for (fx0, fy0, fx1, fy1) in windows {
        let w = Envelope::new(
            s.env.min_x + s.env.width() * fx0,
            s.env.min_y + s.env.height() * fy0,
            s.env.min_x + s.env.width() * fx1,
            s.env.min_y + s.env.height() * fy1,
        )
        .unwrap();
        let expect = s.expect(&SpatialPredicate::Within(Geometry::Polygon(
            Polygon::rectangle(&w),
        )));

        let (plain, _) = s.filestore_plain.query_bbox(&w).unwrap();
        assert_eq!(
            sorted_keys(plain.iter().map(|r| (r.x, r.y))),
            expect,
            "plain filestore window {fx0},{fy0}"
        );
        let (indexed, _) = s.filestore_indexed.query_bbox(&w).unwrap();
        assert_eq!(
            sorted_keys(indexed.iter().map(|r| (r.x, r.y))),
            expect,
            "indexed filestore window {fx0},{fy0}"
        );
        let (blocks, _) = s.blockstore.query_bbox(&w).unwrap();
        assert_eq!(
            sorted_keys(blocks.iter().map(|r| (r.x, r.y))),
            expect,
            "blockstore window {fx0},{fy0}"
        );
    }
}

#[test]
fn all_engines_agree_on_polygon() {
    let s = setup("polygon");
    let cx = s.env.center().x;
    let cy = s.env.center().y;
    let tri = Polygon::from_exterior(vec![
        Point::new(cx - 150.0, cy - 100.0),
        Point::new(cx + 180.0, cy - 60.0),
        Point::new(cx - 20.0, cy + 170.0),
    ])
    .unwrap();
    let g = Geometry::Polygon(tri);
    let expect = s.expect(&SpatialPredicate::Within(g.clone()));
    assert!(!expect.is_empty());

    let (fsr, _) = s.filestore_indexed.query_geometry(&g).unwrap();
    assert_eq!(sorted_keys(fsr.iter().map(|r| (r.x, r.y))), expect);
    let (bsr, _) = s.blockstore.query_geometry(&g).unwrap();
    assert_eq!(sorted_keys(bsr.iter().map(|r| (r.x, r.y))), expect);
}

#[test]
fn index_structures_report_work_reduction() {
    let s = setup("work_reduction");
    let w = Envelope::new(
        s.env.min_x + 50.0,
        s.env.min_y + 50.0,
        s.env.min_x + 120.0,
        s.env.min_y + 120.0,
    )
    .unwrap();
    let (_, plain) = s.filestore_plain.query_bbox(&w).unwrap();
    let (_, indexed) = s.filestore_indexed.query_bbox(&w).unwrap();
    assert!(
        indexed.records_decoded < plain.records_decoded,
        "lasindex decodes less: {} vs {}",
        indexed.records_decoded,
        plain.records_decoded
    );
    let (_, blocks) = s.blockstore.query_bbox(&w).unwrap();
    assert!(blocks.blocks_matched < blocks.blocks_total / 2);
    let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&w)));
    let ours = s.pc.select(&pred).unwrap();
    assert!(ours.explain.after_imprints < s.pc.num_points() / 2);
}
