//! Table I: the simulated system configuration.

#![forbid(unsafe_code)]

use allarm_types::config::MachineConfig;

fn main() {
    let m = MachineConfig::date2014();
    println!("# Table I: simulated system");
    println!(
        "cores                 {} @ {} GHz",
        m.num_cores, m.frequency_ghz
    );
    println!("block size            {} bytes", m.l2.line_bytes);
    println!(
        "L1I / L1D             {} kB {}-way / {} kB {}-way, {} access",
        m.l1i.size_bytes / 1024,
        m.l1i.ways,
        m.l1d.size_bytes / 1024,
        m.l1d.ways,
        m.l1d.access_latency
    );
    println!(
        "L2 (private, excl.)   {} kB {}-way, {} access",
        m.l2.size_bytes / 1024,
        m.l2.ways,
        m.l2.access_latency
    );
    println!(
        "probe filter          tracks {} kB of cached data, {}-way, {} access",
        m.probe_filter.coverage_bytes / 1024,
        m.probe_filter.ways,
        m.probe_filter.access_latency
    );
    println!(
        "DRAM per node         {} MB, {} access",
        m.dram.node_capacity_bytes / (1024 * 1024),
        m.dram.access_latency
    );
    println!(
        "network               {}x{} mesh, {} B flits, {} B control / {} B data msgs",
        m.noc.mesh_x, m.noc.mesh_y, m.noc.flit_bytes, m.noc.control_msg_bytes, m.noc.data_msg_bytes
    );
    println!(
        "link                  {} GB/s, {} latency",
        m.noc.link_bandwidth_bytes_per_ns, m.noc.link_latency
    );
    m.validate().expect("Table I configuration is valid");
}
