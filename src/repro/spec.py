"""Host specification: hardware geometry and calibrated cost constants.

Every latency/CPU constant the simulation charges lives here, in one
frozen dataclass, so that (a) experiments are reproducible, (b) the
calibration pass (``repro.experiments.calibrate``) has a single surface
to tune, and (c) DESIGN.md can point at the exact knobs behind each
paper-matching number.

The default values model the paper's testbed (§3.1): two 28-core Xeon
6348 sockets (we use the 56 physical cores as the processor-sharing
capacity, since page zeroing and memcpy are memory-bandwidth-bound and
gain nothing from hyperthreads), 256 GiB DDR4, a 25 GbE Intel E810 with
256 VFs, CentOS with 2 MiB hugepages, Kata-QEMU microVMs with 0.5 vCPU
and 512 MiB RAM.

Calibration provenance: constants marked ``# cal`` were tuned by
``experiments/calibrate.py`` against the paper's headline shapes
(Tab. 1 proportions, Fig. 11 means, Fig. 1 overhead curve); the rest
are order-of-magnitude values from public kernel/QEMU profiling that
the shapes are insensitive to.
"""

import dataclasses

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclasses.dataclass(frozen=True)
class HostSpec:
    """All tunable constants of the simulated host."""

    # ------------------------------------------------------------------
    # hardware geometry
    # ------------------------------------------------------------------
    cores: int = 56
    memory_bytes: int = 256 * GIB
    page_size: int = 2 * MIB  # hugepages enabled, as in §3.1
    nic_model: str = "intel-e810"
    nic_max_vfs: int = 256
    nic_bandwidth_gbps: float = 25.0
    #: Non-VF PCI functions sharing the NIC's bus (root ports, PF, ...).
    pci_extra_devices: int = 2
    #: Storage-server link for serverless downloads (two-server setup, §6.1).
    storage_bandwidth_gbps: float = 25.0

    # ------------------------------------------------------------------
    # VFIO devset management (Bottleneck 1, §3.2.2)
    # ------------------------------------------------------------------
    #: Fixed part of opening a VFIO device (chardev open, fd setup, group
    #: viability checks).
    vfio_open_base_s: float = 0.004
    #: Per-device cost of the PCI bus scan that verifies every device on
    #: the bus belongs to the devset and is reset-quiescent.  With ~256
    #: VFs + extras on the bus this dominates the open.         # cal
    vfio_bus_scan_per_device_s: float = 0.00042
    #: Registering the device with the hypervisor after open (region
    #: info ioctls, interrupt setup).
    vfio_register_ioctls_s: float = 0.030

    # ------------------------------------------------------------------
    # DMA memory mapping (Bottleneck 2, §3.2.3, Fig. 6)
    # ------------------------------------------------------------------
    #: Per retrieval batch: one allocator call grabbing a contiguous run.
    dma_retrieve_per_batch_s: float = 30e-6
    #: Per page within a batch (list append, struct page handling).
    dma_retrieve_per_page_s: float = 1.5e-6
    #: Single-thread page-zeroing throughput (streaming stores).  Bulk
    #: zeroing is DRAM-bound, not core-bound: concurrent zeroers share
    #: the memory controller's write bandwidth, modeled as a pool of
    #: ``dram_channels`` x this rate.  The paper measures zeroing at
    #: >93% of mapping time with hugepages (§3.2.3 P3).          # cal
    zeroing_bytes_per_cpu_s: float = 1600 * MIB
    #: Concurrent zeroing streams the memory system sustains at full
    #: per-stream rate; beyond this, streams share the aggregate. # cal
    dram_channels: int = 11
    #: Pinning (get_user_pages + refcount) per page.
    dma_pin_per_page_s: float = 2.0e-6
    #: IOMMU page-table entry install per page.
    iommu_map_per_page_s: float = 2.5e-6
    #: IOMMU page-table entry teardown per page.
    iommu_unmap_per_page_s: float = 1.5e-6
    #: fastiovd: registering one page in the two-tier hash table.
    fastiovd_register_per_page_s: float = 0.4e-6
    #: vIOMMU baseline (§8): emulation-layer intercept per DMA mapping
    #: request on the data path.
    viommu_intercept_s: float = 12e-6
    #: Fault-time zeroing throughput (demand faults / fastiovd's EPT
    #: hook): the page is scrubbed cache-adjacent to its first use, far
    #: faster than the bulk streaming clears of eager DMA mapping.
    fault_zero_bytes_per_cpu_s: float = 1536 * MIB

    # ------------------------------------------------------------------
    # KVM / EPT
    # ------------------------------------------------------------------
    #: One EPT-violation VM exit + GPA->HVA->HPA resolution + entry
    #: install (no zeroing).
    ept_fault_s: float = 4.0e-6
    #: fastiovd hash-table lookup on the EPT fault path (§5).
    fastiovd_lookup_s: float = 0.6e-6
    #: Registering one KVM memory slot.
    kvm_slot_register_s: float = 25e-6
    #: Host anonymous-memory fault (alloc + zero is charged separately).
    host_page_fault_s: float = 2.0e-6

    # ------------------------------------------------------------------
    # fastiovd background zeroing (§5 "background clearing")
    # ------------------------------------------------------------------
    fastiovd_scan_interval_s: float = 0.004
    #: Max bytes one scanner wakeup zeroes (bounds CPU interference).
    fastiovd_scan_chunk_bytes: int = 128 * MIB
    #: Number of background zeroing worker threads.
    fastiovd_scan_workers: int = 32

    # ------------------------------------------------------------------
    # cgroups (step 0-cgroup; heavier for software CNIs, §6.4)
    # ------------------------------------------------------------------
    cgroup_base_s: float = 0.003
    #: Time held under the global cgroup mutex per container.     # cal
    cgroup_lock_hold_s: float = 0.0060
    #: Extra cgroup ops (net_cls/net_prio) a software CNI performs,
    #: as a multiplier on the lock hold.
    cgroup_softcni_factor: float = 2.4

    # ------------------------------------------------------------------
    # driver binding (§5 implementation flaw)
    # ------------------------------------------------------------------
    #: Host netdev driver (iavf) probe: PF mailbox + netdev registration,
    #: serialized on the kernel device lock.
    host_netdev_probe_s: float = 0.32
    #: vfio-pci probe (cheap: no hardware bring-up).
    vfio_probe_s: float = 0.045
    #: Unbind/teardown of either driver.
    driver_unbind_s: float = 0.030

    # ------------------------------------------------------------------
    # host network stack (dummy interfaces, IPvtap; §6.4)
    # ------------------------------------------------------------------
    #: RTNL-lock hold for creating a dummy interface (FastIOV CNI).
    rtnl_dummy_create_s: float = 0.0012
    #: RTNL-lock hold for creating + wiring an ipvtap device.     # cal
    rtnl_ipvtap_create_s: float = 0.021
    #: CPU cost of ipvtap device emulation setup in the hypervisor.
    ipvtap_backend_cpu_s: float = 0.12
    #: Moving an interface into a container NNS / IP configuration.
    netns_move_s: float = 0.004
    ip_configure_s: float = 0.003
    #: Software data plane (ipvtap/virtio-net) throughput per core —
    #: much worse than passthrough (§6.4).
    ipvtap_bytes_per_cpu_s: float = 900 * MIB
    #: Runtime detecting the VF's interface inside the container NNS.
    runtime_vf_detect_s: float = 0.004

    # ------------------------------------------------------------------
    # CNI / container engine pipeline
    # ------------------------------------------------------------------
    nns_create_s: float = 0.005
    cni_invoke_base_s: float = 0.010
    pf_configure_vf_s: float = 0.006

    # ------------------------------------------------------------------
    # microVM lifecycle (non-VF "others" in Tab. 1)
    # ------------------------------------------------------------------
    vm_create_base_s: float = 0.035   # QEMU spawn + config parse
    vm_create_cpu_s: float = 0.10    # cal
    virtiofs_setup_base_s: float = 0.020
    virtiofs_setup_cpu_s: float = 0.16   # cal
    #: virtiofsd spawn/registration critical section (shared daemon
    #: management lock; a software-side serialization [42]).      # cal
    virtiofs_lock_hold_s: float = 0.021
    guest_boot_base_s: float = 0.070
    guest_boot_cpu_s: float = 0.30    # cal
    agent_start_s: float = 0.020
    sandbox_finalize_s: float = 0.010
    #: Containerd sandbox-store critical section per container.   # cal
    engine_serialized_s: float = 0.0010

    # ------------------------------------------------------------------
    # guest memory layout
    # ------------------------------------------------------------------
    default_vm_memory_bytes: int = 512 * MIB
    image_bytes: int = 256 * MIB      # microVM system image (§3.2.3 P1)
    #: Read-only BIOS+kernel loaded by the hypervisor: ~9.4% of a 512 MiB
    #: microVM (§4.3.2), fixed size regardless of RAM.
    rom_bytes: int = 48 * MIB
    #: Fraction of (non-ROM) RAM the guest kernel touches while booting.
    boot_touch_fraction: float = 0.06
    #: virtio vring + RX/TX buffer footprint the VF driver allocates.
    nic_ring_bytes: int = 8 * MIB

    # ------------------------------------------------------------------
    # VF driver initialization inside the guest (Bottleneck 3, §3.2.4)
    # ------------------------------------------------------------------
    vf_driver_pci_enum_s: float = 0.050
    vf_driver_register_netif_s: float = 0.040
    vf_driver_link_up_s: float = 0.100
    vf_driver_cpu_s: float = 0.42     # cal — grows with concurrency via CPU sharing
    #: VF->PF admin-queue negotiation during driver init, serialized at
    #: the PF mailbox; the reason vf-driver time grows into seconds at
    #: high concurrency (§3.2.4).                                 # cal
    vf_admin_negotiation_s: float = 0.055
    agent_ip_assign_s: float = 0.045
    #: Poll period of the agent's asynchronous readiness check (§4.2.2).
    agent_poll_interval_s: float = 0.020
    #: vDPA (§7): virtio-net feature negotiation + vring setup over the
    #: vDPA framework — replaces the whole vendor driver bring-up.
    vdpa_virtio_setup_s: float = 0.045

    # ------------------------------------------------------------------
    # image transfer / app launch (masks async VF init, §4.2.2)
    # ------------------------------------------------------------------
    #: Container image bytes pulled through virtioFS at app launch.
    container_image_bytes: int = 64 * MIB
    #: virtioFS transfer throughput per container stream, bytes/CPU-s.
    virtiofs_bytes_per_cpu_s: float = 600 * MIB
    app_create_process_s: float = 0.080
    app_create_cpu_s: float = 0.11

    # ------------------------------------------------------------------
    # memory-performance model (§6.5)
    # ------------------------------------------------------------------
    #: Guest steady-state memcpy throughput, bytes per CPU-second.
    guest_memcpy_bytes_per_cpu_s: float = 11.5 * GIB
    #: Guest random-access latency per read.
    guest_mem_latency_s: float = 95e-9

    # ------------------------------------------------------------------
    # stochastic jitter
    # ------------------------------------------------------------------
    #: Log-space sigma applied multiplicatively to stage latencies.
    jitter_sigma: float = 0.18

    def derive(self, **overrides):
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    def zeroing_cpu_seconds(self, nbytes):
        """CPU-seconds to bulk-zero ``nbytes`` (streaming clear)."""
        return nbytes / self.zeroing_bytes_per_cpu_s

    def fault_zeroing_cpu_seconds(self, nbytes):
        """CPU-seconds to zero ``nbytes`` on the fault path (cache-warm)."""
        return nbytes / self.fault_zero_bytes_per_cpu_s

    def bytes_over_network_s(self, nbytes, gbps=None):
        """Wire time for ``nbytes`` at ``gbps`` (defaults to the NIC)."""
        rate = self.nic_bandwidth_gbps if gbps is None else gbps
        return nbytes * 8 / (rate * 1e9)


#: The paper's testbed configuration (§3.1).
PAPER_TESTBED = HostSpec()
