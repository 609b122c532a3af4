//! Fixtures shared by the observability integration tests.

use reldb::{Cell, Database, DatabaseBuilder, TableBuilder, Value};

/// A two-table parent/child database: 4 parents, 8 children.
pub fn tiny_db() -> Database {
    let mut p = TableBuilder::new("parent").key("id").col("x");
    for (id, x) in [(0, 0i64), (1, 1), (2, 0), (3, 1)] {
        p.push_row(vec![Cell::Key(id), Cell::Val(Value::Int(x))]).unwrap();
    }
    let mut c = TableBuilder::new("child").key("id").fk("parent", "parent").col("y");
    for (id, pa, y) in [
        (0, 0, 0i64),
        (1, 0, 1),
        (2, 1, 0),
        (3, 2, 1),
        (4, 3, 0),
        (5, 3, 1),
        (6, 1, 0),
        (7, 2, 1),
    ] {
        c.push_row(vec![Cell::Key(id), Cell::Key(pa), Cell::Val(Value::Int(y))]).unwrap();
    }
    DatabaseBuilder::new()
        .add_table(p.finish().unwrap())
        .add_table(c.finish().unwrap())
        .finish()
        .unwrap()
}
