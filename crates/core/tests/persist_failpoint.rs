//! The `persist.load` failpoint makes `load_model` fail with an internal
//! error. Failpoints are armed process-wide, so this test has an
//! integration-test binary of its own: no other test loads a model in
//! this process while the site is armed.

use prmsel::{learn_prm, load_model, save_model, ErrorClass, PrmLearnConfig, SchemaInfo};
use workloads::tb::tb_database_sized;

#[test]
fn load_failpoint_injects_internal_error() {
    let db = tb_database_sized(50, 60, 300, 8);
    let prm = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
    let schema = SchemaInfo::from_db(&db).unwrap();
    let mut buf = Vec::new();
    save_model(&prm, &schema, &mut buf).unwrap();
    failpoint::arm("persist.load", failpoint::Action::Err);
    let r = load_model(buf.as_slice());
    failpoint::disarm("persist.load");
    assert_eq!(r.unwrap_err().class(), ErrorClass::Internal);
}
