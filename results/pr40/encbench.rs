use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let data = &args[1];
    let reps: usize = args[2].parse().unwrap();
    let t = Instant::now();
    let dataset = Arc::new(tind_model::binio::read_dataset_file(std::path::Path::new(data)).unwrap());
    eprintln!("load {:?}", t.elapsed());
    let index = tind_core::TindIndex::build(dataset.clone(), tind_core::IndexConfig::default());
    let mut ds = Vec::new();
    let mut ix = Vec::new();
    let mut sum = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        let b = tind_model::binio::encode_dataset(&dataset);
        ds.push(t.elapsed().as_secs_f64() * 1e3);
        sum += b.len();
        drop(b);
        let t = Instant::now();
        let b = tind_core::persist::encode_index(&index);
        ix.push(t.elapsed().as_secs_f64() * 1e3);
        sum += b.len();
    }
    ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ix.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("encode_dataset_ms {:.2} encode_index_ms {:.2} bytes {}", ds[ds.len() / 2], ix[ix.len() / 2], sum);
}
