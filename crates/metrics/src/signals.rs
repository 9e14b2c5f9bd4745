//! The signal layer: the physical quantities a simulator provides each
//! second, from which the full metric catalog is expanded.
//!
//! Real PCP exports hundreds of metrics, but most are per-device or
//! per-protocol refinements of a much smaller set of underlying
//! quantities (total CPU time, bytes moved, established connections, …).
//! The catalog references these signals symbolically via [`HostSignal`]
//! and [`ContainerSignal`].

/// Host-level quantities for one node at one second.
///
/// Utilizations are fractions in `[0, 1]`; rates are per second; byte
/// quantities are bytes (totals) or bytes/second (rates).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostSignals {
    /// Overall CPU utilization.
    pub cpu_util: f64,
    /// User-mode share of CPU time.
    pub cpu_user: f64,
    /// System-mode share of CPU time.
    pub cpu_sys: f64,
    /// I/O-wait share of CPU time.
    pub cpu_iowait: f64,
    /// Context switches per second.
    pub ctx_switch_rate: f64,
    /// Interrupts per second.
    pub intr_rate: f64,
    /// System calls per second.
    pub syscall_rate: f64,
    /// Number of processes.
    pub nprocs: f64,
    /// Runnable processes.
    pub runnable: f64,
    /// 1-minute load average.
    pub load1: f64,
    /// Memory utilization.
    pub mem_util: f64,
    /// Used memory in bytes.
    pub mem_used_bytes: f64,
    /// Page-cache size in bytes.
    pub mem_cached_bytes: f64,
    /// Dirty pages in bytes.
    pub mem_dirty_bytes: f64,
    /// Pages paged in per second.
    pub pgin_rate: f64,
    /// Pages paged out per second.
    pub pgout_rate: f64,
    /// Page faults per second.
    pub pgfault_rate: f64,
    /// Swap activity (pages/second).
    pub swap_rate: f64,
    /// Network bytes received per second.
    pub net_in_bytes: f64,
    /// Network bytes sent per second.
    pub net_out_bytes: f64,
    /// Packets received per second.
    pub net_in_pkts: f64,
    /// Packets sent per second.
    pub net_out_pkts: f64,
    /// Network errors per second.
    pub net_err_rate: f64,
    /// Network utilization (fraction of link capacity).
    pub net_util: f64,
    /// Currently established TCP connections.
    pub tcp_estab: f64,
    /// TCP sockets in use.
    pub tcp_inuse: f64,
    /// TCP segments retransmitted per second.
    pub tcp_retrans: f64,
    /// Disk bytes read per second.
    pub disk_read_bytes: f64,
    /// Disk bytes written per second.
    pub disk_write_bytes: f64,
    /// Disk operations per second.
    pub disk_iops: f64,
    /// Average disk queue length (`disk.all.aveq` in PCP).
    pub disk_aveq: f64,
    /// Disk busy fraction.
    pub disk_util: f64,
    /// Free inodes.
    pub inodes_free: f64,
}

/// Number of host signals: the length of [`HostSignals::slots`].
pub const HOST_SIGNALS: usize = 33;

impl HostSignals {
    /// The frame as an array indexed by [`HostSignal::slot`], the view a
    /// compiled catalog scope reads its signals from.
    pub fn slots(&self) -> [f64; HOST_SIGNALS] {
        [
            self.cpu_util,
            self.cpu_user,
            self.cpu_sys,
            self.cpu_iowait,
            self.ctx_switch_rate,
            self.intr_rate,
            self.syscall_rate,
            self.nprocs,
            self.runnable,
            self.load1,
            self.mem_util,
            self.mem_used_bytes,
            self.mem_cached_bytes,
            self.mem_dirty_bytes,
            self.pgin_rate,
            self.pgout_rate,
            self.pgfault_rate,
            self.swap_rate,
            self.net_in_bytes,
            self.net_out_bytes,
            self.net_in_pkts,
            self.net_out_pkts,
            self.net_err_rate,
            self.net_util,
            self.tcp_estab,
            self.tcp_inuse,
            self.tcp_retrans,
            self.disk_read_bytes,
            self.disk_write_bytes,
            self.disk_iops,
            self.disk_aveq,
            self.disk_util,
            self.inodes_free,
        ]
    }
}

/// Symbolic reference to one [`HostSignals`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum HostSignal {
    CpuUtil,
    CpuUser,
    CpuSys,
    CpuIowait,
    CtxSwitchRate,
    IntrRate,
    SyscallRate,
    NProcs,
    Runnable,
    Load1,
    MemUtil,
    MemUsedBytes,
    MemCachedBytes,
    MemDirtyBytes,
    PgInRate,
    PgOutRate,
    PgFaultRate,
    SwapRate,
    NetInBytes,
    NetOutBytes,
    NetInPkts,
    NetOutPkts,
    NetErrRate,
    NetUtil,
    TcpEstab,
    TcpInuse,
    TcpRetrans,
    DiskReadBytes,
    DiskWriteBytes,
    DiskIops,
    DiskAveq,
    DiskUtil,
    InodesFree,
}

impl HostSignal {
    /// The signal's index into [`HostSignals::slots`].
    pub fn slot(self) -> usize {
        self as usize
    }

    /// Reads the referenced field.
    pub fn value(self, s: &HostSignals) -> f64 {
        match self {
            HostSignal::CpuUtil => s.cpu_util,
            HostSignal::CpuUser => s.cpu_user,
            HostSignal::CpuSys => s.cpu_sys,
            HostSignal::CpuIowait => s.cpu_iowait,
            HostSignal::CtxSwitchRate => s.ctx_switch_rate,
            HostSignal::IntrRate => s.intr_rate,
            HostSignal::SyscallRate => s.syscall_rate,
            HostSignal::NProcs => s.nprocs,
            HostSignal::Runnable => s.runnable,
            HostSignal::Load1 => s.load1,
            HostSignal::MemUtil => s.mem_util,
            HostSignal::MemUsedBytes => s.mem_used_bytes,
            HostSignal::MemCachedBytes => s.mem_cached_bytes,
            HostSignal::MemDirtyBytes => s.mem_dirty_bytes,
            HostSignal::PgInRate => s.pgin_rate,
            HostSignal::PgOutRate => s.pgout_rate,
            HostSignal::PgFaultRate => s.pgfault_rate,
            HostSignal::SwapRate => s.swap_rate,
            HostSignal::NetInBytes => s.net_in_bytes,
            HostSignal::NetOutBytes => s.net_out_bytes,
            HostSignal::NetInPkts => s.net_in_pkts,
            HostSignal::NetOutPkts => s.net_out_pkts,
            HostSignal::NetErrRate => s.net_err_rate,
            HostSignal::NetUtil => s.net_util,
            HostSignal::TcpEstab => s.tcp_estab,
            HostSignal::TcpInuse => s.tcp_inuse,
            HostSignal::TcpRetrans => s.tcp_retrans,
            HostSignal::DiskReadBytes => s.disk_read_bytes,
            HostSignal::DiskWriteBytes => s.disk_write_bytes,
            HostSignal::DiskIops => s.disk_iops,
            HostSignal::DiskAveq => s.disk_aveq,
            HostSignal::DiskUtil => s.disk_util,
            HostSignal::InodesFree => s.inodes_free,
        }
    }
}

/// Container-level quantities for one service instance at one second.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContainerSignals {
    /// CPU utilization relative to the container's limit, in `[0, 1]`.
    pub cpu_util: f64,
    /// Absolute CPU usage in cores.
    pub cpu_usage_cores: f64,
    /// cgroup CFS throttle events per second.
    pub throttled_rate: f64,
    /// cgroup CFS enforcement periods per second.
    pub periods_rate: f64,
    /// Memory utilization relative to the limit, in `[0, 1]`.
    pub mem_util: f64,
    /// Memory usage in bytes.
    pub mem_usage_bytes: f64,
    /// Page-cache bytes charged to the container.
    pub mem_cache_bytes: f64,
    /// Memory-mapped bytes.
    pub mem_mapped_bytes: f64,
    /// Active file-backed pages (bytes).
    pub mem_active_file: f64,
    /// Inactive file-backed pages (bytes).
    pub mem_inactive_file: f64,
    /// Inactive anonymous pages (bytes).
    pub mem_inactive_anon: f64,
    /// Kernel-stack bytes.
    pub kernel_stack: f64,
    /// Page faults per second.
    pub pgfault_rate: f64,
    /// Bytes received per second.
    pub net_in_bytes: f64,
    /// Bytes sent per second.
    pub net_out_bytes: f64,
    /// Open TCP connections.
    pub tcp_conns: f64,
    /// Disk bytes read per second.
    pub disk_read_bytes: f64,
    /// Disk bytes written per second.
    pub disk_write_bytes: f64,
    /// Block-I/O queue depth.
    pub disk_queue: f64,
    /// Processes in the container.
    pub nprocs: f64,
    /// Threads in the container.
    pub nthreads: f64,
}

/// Number of container signals: the length of [`ContainerSignals::slots`].
pub const CONTAINER_SIGNALS: usize = 21;

impl ContainerSignals {
    /// The frame as an array indexed by [`ContainerSignal::slot`], the view a
    /// compiled catalog scope reads its signals from.
    pub fn slots(&self) -> [f64; CONTAINER_SIGNALS] {
        [
            self.cpu_util,
            self.cpu_usage_cores,
            self.throttled_rate,
            self.periods_rate,
            self.mem_util,
            self.mem_usage_bytes,
            self.mem_cache_bytes,
            self.mem_mapped_bytes,
            self.mem_active_file,
            self.mem_inactive_file,
            self.mem_inactive_anon,
            self.kernel_stack,
            self.pgfault_rate,
            self.net_in_bytes,
            self.net_out_bytes,
            self.tcp_conns,
            self.disk_read_bytes,
            self.disk_write_bytes,
            self.disk_queue,
            self.nprocs,
            self.nthreads,
        ]
    }
}

/// Symbolic reference to one [`ContainerSignals`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ContainerSignal {
    CpuUtil,
    CpuUsageCores,
    ThrottledRate,
    PeriodsRate,
    MemUtil,
    MemUsageBytes,
    MemCacheBytes,
    MemMappedBytes,
    MemActiveFile,
    MemInactiveFile,
    MemInactiveAnon,
    KernelStack,
    PgFaultRate,
    NetInBytes,
    NetOutBytes,
    TcpConns,
    DiskReadBytes,
    DiskWriteBytes,
    DiskQueue,
    NProcs,
    NThreads,
}

impl ContainerSignal {
    /// The signal's index into [`ContainerSignals::slots`].
    pub fn slot(self) -> usize {
        self as usize
    }

    /// Reads the referenced field.
    pub fn value(self, s: &ContainerSignals) -> f64 {
        match self {
            ContainerSignal::CpuUtil => s.cpu_util,
            ContainerSignal::CpuUsageCores => s.cpu_usage_cores,
            ContainerSignal::ThrottledRate => s.throttled_rate,
            ContainerSignal::PeriodsRate => s.periods_rate,
            ContainerSignal::MemUtil => s.mem_util,
            ContainerSignal::MemUsageBytes => s.mem_usage_bytes,
            ContainerSignal::MemCacheBytes => s.mem_cache_bytes,
            ContainerSignal::MemMappedBytes => s.mem_mapped_bytes,
            ContainerSignal::MemActiveFile => s.mem_active_file,
            ContainerSignal::MemInactiveFile => s.mem_inactive_file,
            ContainerSignal::MemInactiveAnon => s.mem_inactive_anon,
            ContainerSignal::KernelStack => s.kernel_stack,
            ContainerSignal::PgFaultRate => s.pgfault_rate,
            ContainerSignal::NetInBytes => s.net_in_bytes,
            ContainerSignal::NetOutBytes => s.net_out_bytes,
            ContainerSignal::TcpConns => s.tcp_conns,
            ContainerSignal::DiskReadBytes => s.disk_read_bytes,
            ContainerSignal::DiskWriteBytes => s.disk_write_bytes,
            ContainerSignal::DiskQueue => s.disk_queue,
            ContainerSignal::NProcs => s.nprocs,
            ContainerSignal::NThreads => s.nthreads,
        }
    }
}

/// Where a catalog metric gets its value from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SignalSource {
    /// A host signal scaled by `weight`.
    Host(HostSignal),
    /// A container signal scaled by `weight`.
    Container(ContainerSignal),
    /// A fixed hardware-inventory constant.
    Constant(f64),
}

monitorless_std::json_struct!(HostSignals {
    cpu_util,
    cpu_user,
    cpu_sys,
    cpu_iowait,
    ctx_switch_rate,
    intr_rate,
    syscall_rate,
    nprocs,
    runnable,
    load1,
    mem_util,
    mem_used_bytes,
    mem_cached_bytes,
    mem_dirty_bytes,
    pgin_rate,
    pgout_rate,
    pgfault_rate,
    swap_rate,
    net_in_bytes,
    net_out_bytes,
    net_in_pkts,
    net_out_pkts,
    net_err_rate,
    net_util,
    tcp_estab,
    tcp_inuse,
    tcp_retrans,
    disk_read_bytes,
    disk_write_bytes,
    disk_iops,
    disk_aveq,
    disk_util,
    inodes_free,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_signal_reads_right_field() {
        let s = HostSignals {
            cpu_util: 0.7,
            tcp_estab: 42.0,
            ..HostSignals::default()
        };
        assert_eq!(HostSignal::CpuUtil.value(&s), 0.7);
        assert_eq!(HostSignal::TcpEstab.value(&s), 42.0);
        assert_eq!(HostSignal::DiskAveq.value(&s), 0.0);
    }

    #[test]
    fn container_signal_reads_right_field() {
        let s = ContainerSignals {
            cpu_util: 0.95,
            mem_mapped_bytes: 1024.0,
            ..ContainerSignals::default()
        };
        assert_eq!(ContainerSignal::CpuUtil.value(&s), 0.95);
        assert_eq!(ContainerSignal::MemMappedBytes.value(&s), 1024.0);
    }

    #[test]
    fn every_signal_reads_the_same_through_its_slot() {
        use ContainerSignal as C;
        use HostSignal as H;
        // Distinct field values, so a slot that names the wrong field
        // reads a different value than `value()`.
        let host = HostSignals {
            cpu_util: 1.0,
            cpu_user: 2.0,
            cpu_sys: 3.0,
            cpu_iowait: 4.0,
            ctx_switch_rate: 5.0,
            intr_rate: 6.0,
            syscall_rate: 7.0,
            nprocs: 8.0,
            runnable: 9.0,
            load1: 10.0,
            mem_util: 11.0,
            mem_used_bytes: 12.0,
            mem_cached_bytes: 13.0,
            mem_dirty_bytes: 14.0,
            pgin_rate: 15.0,
            pgout_rate: 16.0,
            pgfault_rate: 17.0,
            swap_rate: 18.0,
            net_in_bytes: 19.0,
            net_out_bytes: 20.0,
            net_in_pkts: 21.0,
            net_out_pkts: 22.0,
            net_err_rate: 23.0,
            net_util: 24.0,
            tcp_estab: 25.0,
            tcp_inuse: 26.0,
            tcp_retrans: 27.0,
            disk_read_bytes: 28.0,
            disk_write_bytes: 29.0,
            disk_iops: 30.0,
            disk_aveq: 31.0,
            disk_util: 32.0,
            inodes_free: 33.0,
        };
        let all_host = [
            H::CpuUtil,
            H::CpuUser,
            H::CpuSys,
            H::CpuIowait,
            H::CtxSwitchRate,
            H::IntrRate,
            H::SyscallRate,
            H::NProcs,
            H::Runnable,
            H::Load1,
            H::MemUtil,
            H::MemUsedBytes,
            H::MemCachedBytes,
            H::MemDirtyBytes,
            H::PgInRate,
            H::PgOutRate,
            H::PgFaultRate,
            H::SwapRate,
            H::NetInBytes,
            H::NetOutBytes,
            H::NetInPkts,
            H::NetOutPkts,
            H::NetErrRate,
            H::NetUtil,
            H::TcpEstab,
            H::TcpInuse,
            H::TcpRetrans,
            H::DiskReadBytes,
            H::DiskWriteBytes,
            H::DiskIops,
            H::DiskAveq,
            H::DiskUtil,
            H::InodesFree,
        ];
        assert_eq!(all_host.len(), HOST_SIGNALS);
        for s in all_host {
            assert_eq!(host.slots()[s.slot()], s.value(&host), "{s:?}");
        }
        let ctr = ContainerSignals {
            cpu_util: 1.0,
            cpu_usage_cores: 2.0,
            throttled_rate: 3.0,
            periods_rate: 4.0,
            mem_util: 5.0,
            mem_usage_bytes: 6.0,
            mem_cache_bytes: 7.0,
            mem_mapped_bytes: 8.0,
            mem_active_file: 9.0,
            mem_inactive_file: 10.0,
            mem_inactive_anon: 11.0,
            kernel_stack: 12.0,
            pgfault_rate: 13.0,
            net_in_bytes: 14.0,
            net_out_bytes: 15.0,
            tcp_conns: 16.0,
            disk_read_bytes: 17.0,
            disk_write_bytes: 18.0,
            disk_queue: 19.0,
            nprocs: 20.0,
            nthreads: 21.0,
        };
        let all_ctr = [
            C::CpuUtil,
            C::CpuUsageCores,
            C::ThrottledRate,
            C::PeriodsRate,
            C::MemUtil,
            C::MemUsageBytes,
            C::MemCacheBytes,
            C::MemMappedBytes,
            C::MemActiveFile,
            C::MemInactiveFile,
            C::MemInactiveAnon,
            C::KernelStack,
            C::PgFaultRate,
            C::NetInBytes,
            C::NetOutBytes,
            C::TcpConns,
            C::DiskReadBytes,
            C::DiskWriteBytes,
            C::DiskQueue,
            C::NProcs,
            C::NThreads,
        ];
        assert_eq!(all_ctr.len(), CONTAINER_SIGNALS);
        for s in all_ctr {
            assert_eq!(ctr.slots()[s.slot()], s.value(&ctr), "{s:?}");
        }
    }

    #[test]
    fn signals_are_serializable() {
        let s = HostSignals::default();
        let back: HostSignals =
            monitorless_std::json::from_str(&monitorless_std::json::to_string(&s)).unwrap();
        assert_eq!(back, s);
    }
}
