//! Logical planning: pushdown extraction and join recognition.
//!
//! The planner's one real job — the point of the whole paper — is to spot
//! spatial predicates that the two-step imprint engine can evaluate and
//! hand them down instead of filtering row by row:
//!
//! * `ST_Contains(<constant geometry>, ST_Point(p.x, p.y))` (and its
//!   `ST_Within` / `ST_Intersects` spellings) becomes a
//!   [`SpatialPredicate::Within`] pushdown;
//! * `ST_DWithin(ST_Point(p.x, p.y), <constant geometry>, <constant>)`
//!   becomes a [`SpatialPredicate::DWithin`] pushdown;
//! * the same forms with a *vector-table geometry column* in place of the
//!   constant become the join predicate of a [`Plan::SpatialJoin`]: one
//!   two-step index probe per qualifying feature.
//!
//! Everything else stays as a residual filter, so unplanned predicates are
//! still answered correctly — just without index support.

use crate::ast::{BinOp, Expr, SelectStmt};
use crate::catalog::{Catalog, Table};
use crate::error::SqlError;
use crate::exec::eval_const;
use crate::value::SqlValue;
use lidardb_core::{AttrRange, SpatialPredicate};
use lidardb_geom::Geometry;

/// A FROM-table bound against the catalog.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// Alias used in the query.
    pub alias: String,
    /// Catalog name.
    pub name: String,
    /// Whether it is the point-cloud table.
    pub is_points: bool,
}

/// Scan of the point-cloud table.
#[derive(Debug)]
pub struct PcScan {
    /// The bound table.
    pub table: BoundTable,
    /// Predicate pushed into the two-step engine.
    pub spatial: Option<SpatialPredicate>,
    /// Attribute-range predicates pushed into per-column imprints
    /// (thematic pushdown: imprints index any column, §2.1.1).
    pub attr_ranges: Vec<AttrRange>,
    /// Residual conjunct terms evaluated per row.
    pub residual: Vec<Expr>,
}

/// Scan of a vector table.
#[derive(Debug)]
pub struct VecScan {
    /// The bound table.
    pub table: BoundTable,
    /// Residual conjunct terms evaluated per row.
    pub residual: Vec<Expr>,
}

/// The join predicate connecting a point to a vector feature.
#[derive(Debug, Clone)]
pub enum JoinPred {
    /// `ST_DWithin(ST_Point(p.x, p.y), v.<geom_col>, dist)`.
    DWithin {
        /// Geometry column of the vector table.
        geom_col: String,
        /// The distance.
        dist: f64,
    },
    /// `ST_Contains(v.<geom_col>, ST_Point(p.x, p.y))`.
    ContainsPoint {
        /// Geometry column of the vector table.
        geom_col: String,
    },
}

/// The executable plan shapes.
#[derive(Debug)]
pub enum Plan {
    /// Single point-cloud table.
    PcScan(PcScan),
    /// Single vector table.
    VecScan(VecScan),
    /// Point-cloud × vector-table spatial join.
    SpatialJoin {
        /// Point side (spatial slot unused; the join drives the probes).
        pc: PcScan,
        /// Feature side.
        vec: VecScan,
        /// The join predicate.
        join: JoinPred,
        /// Terms referencing both sides, evaluated on joined pairs.
        pair_residual: Vec<Expr>,
    },
}

impl Plan {
    /// Human-readable plan tree for `EXPLAIN`.
    pub fn describe(&self) -> String {
        match self {
            Plan::PcScan(p) => {
                let mut s = format!(
                    "PointCloudScan {} [two-step imprint engine]\n",
                    p.table.alias
                );
                match &p.spatial {
                    Some(SpatialPredicate::Within(g)) => {
                        s += &format!("  spatial pushdown: WITHIN {}\n", g.type_name())
                    }
                    Some(SpatialPredicate::DWithin(g, d)) => {
                        s += &format!("  spatial pushdown: DWITHIN({}, {d})\n", g.type_name())
                    }
                    None if p.attr_ranges.is_empty() => s += "  full scan (no pushdown)\n",
                    None => s += "  no spatial pushdown\n",
                }
                for a in &p.attr_ranges {
                    s += &format!(
                        "  attribute pushdown: {} in [{}, {}]\n",
                        a.column, a.lo, a.hi
                    );
                }
                for r in &p.residual {
                    s += &format!("  residual: {}\n", r.render());
                }
                s
            }
            Plan::VecScan(v) => {
                let mut s = format!("VectorScan {}\n", v.table.alias);
                for r in &v.residual {
                    s += &format!("  residual: {}\n", r.render());
                }
                s
            }
            Plan::SpatialJoin {
                pc,
                vec,
                join,
                pair_residual,
            } => {
                let mut s = format!(
                    "SpatialJoin ({} x {}) [one index probe per feature]\n",
                    pc.table.alias, vec.table.alias
                );
                s += &match join {
                    JoinPred::DWithin { geom_col, dist } => {
                        format!(
                            "  join: ST_DWithin(point, {}.{geom_col}, {dist})\n",
                            vec.table.alias
                        )
                    }
                    JoinPred::ContainsPoint { geom_col } => {
                        format!(
                            "  join: ST_Contains({}.{geom_col}, point)\n",
                            vec.table.alias
                        )
                    }
                };
                for r in &vec.residual {
                    s += &format!("  feature filter: {}\n", r.render());
                }
                for r in &pc.residual {
                    s += &format!("  point filter: {}\n", r.render());
                }
                for r in pair_residual {
                    s += &format!("  pair filter: {}\n", r.render());
                }
                s
            }
        }
    }
}

/// Split a predicate into its top-level conjunct terms.
pub fn conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// The set of table aliases an expression references (unqualified columns
/// count as referencing `default_alias` when they resolve there).
fn referenced_aliases(e: &Expr, tables: &[BoundTable], catalog: &Catalog) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    e.visit_columns(&mut |tab, name| {
        let alias = match tab {
            Some(t) => Some(t.to_string()),
            None => tables
                .iter()
                .find(|bt| {
                    catalog
                        .columns_of(&bt.name)
                        .map(|cols| cols.iter().any(|c| c == name))
                        .unwrap_or(false)
                })
                .map(|bt| bt.alias.clone()),
        };
        if let Some(a) = alias {
            if !out.contains(&a) {
                out.push(a);
            }
        }
    });
    out
}

/// Whether `e` is `ST_Point(x, y)` over the point table's coordinates.
fn is_pc_point(e: &Expr, pc_alias: &str) -> bool {
    if let Expr::Func { name, args } = e {
        if (name == "ST_POINT" || name == "ST_MAKEPOINT") && args.len() == 2 {
            let is_coord = |a: &Expr, want: &str| {
                matches!(a, Expr::Column { table, name }
                    if name == want && table.as_deref().is_none_or(|t| t == pc_alias))
            };
            return is_coord(&args[0], "x") && is_coord(&args[1], "y");
        }
    }
    false
}

/// Evaluate a constant expression to a geometry, if it is one.
fn const_geom(e: &Expr) -> Option<Geometry> {
    if !e.is_constant() {
        return None;
    }
    match eval_const(e) {
        Ok(SqlValue::Geom(g)) => Some(g),
        _ => None,
    }
}

fn const_num(e: &Expr) -> Option<f64> {
    if !e.is_constant() {
        return None;
    }
    eval_const(e).ok()?.as_f64().ok()
}

/// Whether `e` is a reference to a geometry column of the vector table;
/// returns the column name.
fn vec_geom_col(e: &Expr, vec: &BoundTable, catalog: &Catalog) -> Option<String> {
    if let Expr::Column { table, name } = e {
        let qualified_ok = table.as_deref().is_none_or(|t| t == vec.alias);
        if qualified_ok {
            if let Ok(Table::Vector(vt)) = catalog.table(&vec.name) {
                if vt.has_column(name) {
                    return Some(name.clone());
                }
            }
        }
    }
    None
}

/// Try to turn one conjunct into a constant-geometry spatial pushdown.
fn extract_spatial(term: &Expr, pc_alias: &str) -> Option<SpatialPredicate> {
    let Expr::Func { name, args } = term else {
        return None;
    };
    match (name.as_str(), args.len()) {
        ("ST_CONTAINS", 2) => {
            let g = const_geom(&args[0])?;
            is_pc_point(&args[1], pc_alias).then_some(SpatialPredicate::Within(g))
        }
        ("ST_WITHIN", 2) => {
            let g = const_geom(&args[1])?;
            is_pc_point(&args[0], pc_alias).then_some(SpatialPredicate::Within(g))
        }
        ("ST_INTERSECTS", 2) => {
            // For a point argument, intersects == contains.
            if is_pc_point(&args[0], pc_alias) {
                const_geom(&args[1]).map(SpatialPredicate::Within)
            } else if is_pc_point(&args[1], pc_alias) {
                const_geom(&args[0]).map(SpatialPredicate::Within)
            } else {
                None
            }
        }
        ("ST_DWITHIN", 3) => {
            let d = const_num(&args[2])?;
            if is_pc_point(&args[0], pc_alias) {
                const_geom(&args[1]).map(|g| SpatialPredicate::DWithin(g, d))
            } else if is_pc_point(&args[1], pc_alias) {
                const_geom(&args[0]).map(|g| SpatialPredicate::DWithin(g, d))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Try to turn one conjunct into an attribute-range pushdown over a
/// point-table column. Returns the range plus whether it is *exact*
/// (inclusive operators: the term can be dropped) or merely a widened
/// filter (strict `<` / `>`: the term must also stay as a residual).
fn extract_attr_range(
    term: &Expr,
    pc: &BoundTable,
    catalog: &Catalog,
) -> Option<(AttrRange, bool)> {
    // The column must belong to the point table.
    let col_of = |e: &Expr| -> Option<String> {
        if let Expr::Column { table, name } = e {
            let qualified_ok = table.as_deref().is_none_or(|t| t == pc.alias);
            if qualified_ok
                && catalog
                    .columns_of(&pc.name)
                    .map(|cols| cols.iter().any(|c| c == name))
                    .unwrap_or(false)
            {
                return Some(name.clone());
            }
        }
        None
    };
    match term {
        Expr::Between { expr, lo, hi } => {
            let col = col_of(expr)?;
            Some((AttrRange::new(col, const_num(lo)?, const_num(hi)?), true))
        }
        Expr::Binary { op, left, right } => {
            // Normalise to  column <op> constant.
            let (col, c, op) = if let Some(col) = col_of(left) {
                (col, const_num(right)?, *op)
            } else if let Some(col) = col_of(right) {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    other => *other,
                };
                (col, const_num(left)?, flipped)
            } else {
                return None;
            };
            match op {
                BinOp::Eq => Some((AttrRange::new(col, c, c), true)),
                BinOp::Le => Some((AttrRange::new(col, f64::NEG_INFINITY, c), true)),
                BinOp::Ge => Some((AttrRange::new(col, c, f64::INFINITY), true)),
                // Strict bounds: widen for the index, keep the term exact.
                BinOp::Lt => Some((AttrRange::new(col, f64::NEG_INFINITY, c), false)),
                BinOp::Gt => Some((AttrRange::new(col, c, f64::INFINITY), false)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Try to turn one conjunct into a point×vector join predicate.
fn extract_join(
    term: &Expr,
    pc_alias: &str,
    vec: &BoundTable,
    catalog: &Catalog,
) -> Option<JoinPred> {
    let Expr::Func { name, args } = term else {
        return None;
    };
    match (name.as_str(), args.len()) {
        ("ST_DWITHIN", 3) => {
            let dist = const_num(&args[2])?;
            if is_pc_point(&args[0], pc_alias) {
                vec_geom_col(&args[1], vec, catalog)
                    .map(|geom_col| JoinPred::DWithin { geom_col, dist })
            } else if is_pc_point(&args[1], pc_alias) {
                vec_geom_col(&args[0], vec, catalog)
                    .map(|geom_col| JoinPred::DWithin { geom_col, dist })
            } else {
                None
            }
        }
        ("ST_CONTAINS", 2) => {
            let geom_col = vec_geom_col(&args[0], vec, catalog)?;
            is_pc_point(&args[1], pc_alias).then_some(JoinPred::ContainsPoint { geom_col })
        }
        ("ST_WITHIN", 2) => {
            let geom_col = vec_geom_col(&args[1], vec, catalog)?;
            is_pc_point(&args[0], pc_alias).then_some(JoinPred::ContainsPoint { geom_col })
        }
        _ => None,
    }
}

/// Build the executable plan for a SELECT.
pub fn plan_select(catalog: &Catalog, stmt: &SelectStmt) -> Result<Plan, SqlError> {
    // Bind tables.
    let mut tables = Vec::new();
    for t in &stmt.from {
        let is_points = matches!(
            catalog.table(&t.name)?,
            Table::Points(_) | Table::Stream(_) | Table::Tiled(_)
        );
        tables.push(BoundTable {
            alias: t.alias.clone(),
            name: t.name.clone(),
            is_points,
        });
    }
    let terms = stmt
        .where_clause
        .as_ref()
        .map(conjuncts)
        .unwrap_or_default();

    match tables.len() {
        1 => {
            let table = tables.pop().expect("one table");
            if table.is_points {
                let mut spatial = None;
                let mut attr_ranges = Vec::new();
                let mut residual = Vec::new();
                for term in terms {
                    if spatial.is_none() {
                        if let Some(p) = extract_spatial(&term, &table.alias) {
                            spatial = Some(p);
                            continue;
                        }
                    }
                    if let Some((range, exact)) = extract_attr_range(&term, &table, catalog) {
                        attr_ranges.push(range);
                        if exact {
                            continue;
                        }
                    }
                    residual.push(term);
                }
                Ok(Plan::PcScan(PcScan {
                    table,
                    spatial,
                    attr_ranges,
                    residual,
                }))
            } else {
                Ok(Plan::VecScan(VecScan {
                    table,
                    residual: terms,
                }))
            }
        }
        2 => {
            let (pc_t, vec_t) = match (tables[0].is_points, tables[1].is_points) {
                (true, false) => (tables[0].clone(), tables[1].clone()),
                (false, true) => (tables[1].clone(), tables[0].clone()),
                (true, true) => {
                    return Err(SqlError::Plan(
                        "joining two point-cloud tables is not supported".into(),
                    ))
                }
                (false, false) => {
                    return Err(SqlError::Plan(
                        "vector-vector joins are not supported".into(),
                    ))
                }
            };
            let mut join = None;
            let mut pc_residual = Vec::new();
            let mut pc_attr_ranges = Vec::new();
            let mut vec_residual = Vec::new();
            let mut pair_residual = Vec::new();
            for term in terms {
                if join.is_none() {
                    if let Some(j) = extract_join(&term, &pc_t.alias, &vec_t, catalog) {
                        join = Some(j);
                        continue;
                    }
                }
                let refs = referenced_aliases(&term, &tables, catalog);
                let touches_pc = refs.contains(&pc_t.alias);
                let touches_vec = refs.contains(&vec_t.alias);
                match (touches_pc, touches_vec) {
                    (true, false) => {
                        if let Some((range, exact)) = extract_attr_range(&term, &pc_t, catalog) {
                            pc_attr_ranges.push(range);
                            if exact {
                                continue;
                            }
                        }
                        pc_residual.push(term);
                    }
                    (false, true) => vec_residual.push(term),
                    _ => pair_residual.push(term),
                }
            }
            let join = join.ok_or_else(|| {
                SqlError::Plan(
                    "a point-cloud/vector join needs an ST_DWithin or ST_Contains \
                     predicate over ST_Point(x, y) and the feature geometry"
                        .into(),
                )
            })?;
            Ok(Plan::SpatialJoin {
                pc: PcScan {
                    table: pc_t,
                    spatial: None,
                    attr_ranges: pc_attr_ranges,
                    residual: pc_residual,
                },
                vec: VecScan {
                    table: vec_t,
                    residual: vec_residual,
                },
                join,
                pair_residual,
            })
        }
        0 => Err(SqlError::Plan("FROM clause is required".into())),
        n => Err(SqlError::Plan(format!("{n}-table joins are not supported"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{VColumn, VectorTable};
    use crate::parser::parse;
    use lidardb_geom::Point;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_pointcloud("points", Arc::new(lidardb_core::PointCloud::new()));
        c.register_vector(
            "roads",
            VectorTable::new()
                .with_column("id", VColumn::Int(vec![1]))
                .with_column("class", VColumn::Str(vec!["motorway".into()]))
                .with_column(
                    "geom",
                    VColumn::Geom(vec![Geometry::Point(Point::new(0.0, 0.0))]),
                ),
        );
        c
    }

    fn plan(sql: &str) -> Plan {
        let crate::ast::Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        plan_select(&catalog(), &s).unwrap()
    }

    #[test]
    fn contains_pushdown() {
        let p = plan(
            "SELECT * FROM points WHERE \
             ST_Contains(ST_MakeEnvelope(0, 0, 10, 10), ST_Point(x, y))",
        );
        match p {
            Plan::PcScan(scan) => {
                assert!(matches!(scan.spatial, Some(SpatialPredicate::Within(_))));
                assert!(scan.residual.is_empty());
            }
            other => panic!("wrong plan {other:?}"),
        }
    }

    #[test]
    fn dwithin_pushdown_with_residual() {
        let p = plan(
            "SELECT * FROM points p WHERE \
             ST_DWithin(ST_Point(p.x, p.y), ST_GeomFromText('LINESTRING (0 0, 1 1)'), 5) \
             AND classification = 6",
        );
        match p {
            Plan::PcScan(scan) => {
                match scan.spatial {
                    Some(SpatialPredicate::DWithin(_, d)) => assert_eq!(d, 5.0),
                    other => panic!("wrong pushdown {other:?}"),
                }
                // classification = 6 is now an attribute pushdown, fully
                // absorbed by the imprint probe (no residual needed).
                assert_eq!(
                    scan.attr_ranges,
                    vec![AttrRange::new("classification", 6.0, 6.0)]
                );
                assert!(scan.residual.is_empty());
            }
            other => panic!("wrong plan {other:?}"),
        }
    }

    #[test]
    fn no_pushdown_without_constant_geometry() {
        let p = plan("SELECT * FROM points WHERE z > 5");
        match p {
            Plan::PcScan(scan) => {
                assert!(scan.spatial.is_none());
                assert_eq!(scan.residual.len(), 1);
            }
            other => panic!("wrong plan {other:?}"),
        }
    }

    #[test]
    fn spatial_join_recognised() {
        let p = plan(
            "SELECT COUNT(*) FROM points p, roads r WHERE \
             ST_DWithin(ST_Point(p.x, p.y), r.geom, 50) AND r.class = 'motorway' \
             AND p.classification = 2",
        );
        match p {
            Plan::SpatialJoin {
                pc,
                vec,
                join,
                pair_residual,
            } => {
                match join {
                    JoinPred::DWithin { geom_col, dist } => {
                        assert_eq!(geom_col, "geom");
                        assert_eq!(dist, 50.0);
                    }
                    other => panic!("wrong join {other:?}"),
                }
                assert_eq!(vec.residual.len(), 1, "r.class filter on feature side");
                assert_eq!(
                    pc.attr_ranges,
                    vec![AttrRange::new("classification", 2.0, 2.0)],
                    "classification filter pushed into imprints on the point side"
                );
                assert!(pc.residual.is_empty());
                assert!(pair_residual.is_empty());
            }
            other => panic!("wrong plan {other:?}"),
        }
    }

    #[test]
    fn contains_join_recognised() {
        let p = plan(
            "SELECT COUNT(*) FROM points p, roads r WHERE \
             ST_Contains(r.geom, ST_Point(p.x, p.y))",
        );
        assert!(matches!(
            p,
            Plan::SpatialJoin {
                join: JoinPred::ContainsPoint { .. },
                ..
            }
        ));
    }

    #[test]
    fn join_without_spatial_predicate_rejected() {
        let crate::ast::Statement::Select(s) =
            parse("SELECT COUNT(*) FROM points p, roads r WHERE r.id = 1").unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            plan_select(&catalog(), &s),
            Err(SqlError::Plan(_))
        ));
    }

    #[test]
    fn unknown_table_rejected() {
        let crate::ast::Statement::Select(s) = parse("SELECT * FROM nope").unwrap() else {
            panic!()
        };
        assert!(plan_select(&catalog(), &s).is_err());
    }

    #[test]
    fn vec_scan_plan() {
        let p = plan("SELECT * FROM roads WHERE class = 'motorway'");
        match p {
            Plan::VecScan(scan) => assert_eq!(scan.residual.len(), 1),
            other => panic!("wrong plan {other:?}"),
        }
    }

    #[test]
    fn describe_mentions_pushdown() {
        let p = plan(
            "SELECT * FROM points WHERE \
             ST_Contains(ST_MakeEnvelope(0, 0, 10, 10), ST_Point(x, y))",
        );
        let d = p.describe();
        assert!(d.contains("spatial pushdown"));
        assert!(d.contains("two-step"));
    }

    #[test]
    fn attr_range_forms() {
        // BETWEEN and >= are exact pushdowns; strict > keeps a residual.
        let p = plan("SELECT * FROM points WHERE z BETWEEN 1 AND 5 AND intensity >= 100");
        match p {
            Plan::PcScan(scan) => {
                assert_eq!(scan.attr_ranges.len(), 2);
                assert_eq!(scan.attr_ranges[0], AttrRange::new("z", 1.0, 5.0));
                assert_eq!(
                    scan.attr_ranges[1],
                    AttrRange::new("intensity", 100.0, f64::INFINITY)
                );
                assert!(scan.residual.is_empty());
            }
            other => panic!("wrong plan {other:?}"),
        }
        let p = plan("SELECT * FROM points WHERE z > 5");
        match p {
            Plan::PcScan(scan) => {
                assert_eq!(scan.attr_ranges.len(), 1, "widened range for the index");
                assert_eq!(scan.residual.len(), 1, "strict bound stays exact");
            }
            other => panic!("wrong plan {other:?}"),
        }
        // Reversed operand order flips the operator.
        let p = plan("SELECT * FROM points WHERE 10 >= z");
        match p {
            Plan::PcScan(scan) => {
                assert_eq!(
                    scan.attr_ranges[0],
                    AttrRange::new("z", f64::NEG_INFINITY, 10.0)
                );
                assert!(scan.residual.is_empty());
            }
            other => panic!("wrong plan {other:?}"),
        }
        // Column-vs-column comparisons are not pushable.
        let p = plan("SELECT * FROM points WHERE z > x");
        match p {
            Plan::PcScan(scan) => {
                assert!(scan.attr_ranges.is_empty());
                assert_eq!(scan.residual.len(), 1);
            }
            other => panic!("wrong plan {other:?}"),
        }
    }

    #[test]
    fn conjunct_splitting() {
        let crate::ast::Statement::Select(s) =
            parse("SELECT * FROM points WHERE a = 1 AND (b = 2 OR c = 3) AND d = 4").unwrap()
        else {
            panic!()
        };
        let terms = conjuncts(s.where_clause.as_ref().unwrap());
        assert_eq!(terms.len(), 3);
    }
}
