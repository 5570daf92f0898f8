"""The hypervisor (Kata-QEMU) model.

Drives microVM construction in the order the paper's timeline shows
(Fig. 5): VM create -> DMA-map RAM (``1-dma-ram``) -> virtioFS setup
(``2-virtiofs``) -> DMA-map image (``3-dma-image``, skippable per
§4.3.1) -> VFIO device open (``4-vfio-dev``).  Guest boot and VF driver
init are invoked afterwards by the container runtime, which owns the
sync-vs-async decision.

FastIOV touchpoints implemented here:

* ``skip_image_mapping`` — the hypervisor is told the image region's
  name/size up front and falls back to its non-DMA logic for it
  (page-cache backing shared across all microVMs).
* ``zeroing_policy`` — eager / pre-zeroed / decoupled (fastiovd).
* ``use_instant_zeroing_list`` — with decoupled zeroing, hypervisor-
  written pages (ROM; and the image, when it *is* DMA-mapped) are
  registered for instant zeroing before the write.  Disabling this is
  the §4.3.2 "scenario 1" failure injection.
"""

import dataclasses

from repro.oskernel.kvm import AnonBacking, FileBacking, PinnedBacking
from repro.oskernel.vfio import EAGER_ZEROING, ZeroingMode
from repro.sim.core import Timeout
from repro.virt.guest import GuestKernel
from repro.virt.layout import GuestMemoryLayout
from repro.virt.microvm import Microvm
from repro.virt.virtio import VirtioFS

#: Shared host file name for the microVM system image.
MICROVM_IMAGE_FILE = "microvm-image"


@dataclasses.dataclass(frozen=True)
class VirtNetworkPlan:
    """How the microVM's network and guest memory are to be set up."""

    #: Attach an SR-IOV VF with passthrough I/O?
    passthrough: bool = False
    #: The VF to attach (required when passthrough).
    vf: object = None
    #: Zeroing policy for DMA-mapped regions.
    zeroing_policy: object = EAGER_ZEROING
    #: FastIOV §4.3.1: skip DMA mapping of the image region.
    skip_image_mapping: bool = False
    #: FastIOV §4.3.2: protect hypervisor-written pages.  Failure
    #: injection sets this False to reproduce the guest crash.
    use_instant_zeroing_list: bool = True
    #: FastIOV §4.3.2: proactive EPT faults for virtio buffers.
    proactive_virtio_faults: bool = True
    #: §7: drive the passthrough VF with the standard virtio driver
    #: (vDPA) instead of the vendor VF driver.
    vdpa: bool = False
    #: §8 baseline: vIOMMU-style deferred DMA mapping — guest memory is
    #: demand-paged; the IOMMU emulation maps pages when DMA first
    #: targets them.
    deferred_mapping: bool = False

    def __post_init__(self):
        if self.passthrough and self.vf is None:
            raise ValueError("passthrough plan requires a VF")
        if self.vdpa and not self.passthrough:
            raise ValueError("vDPA requires a passthrough VF")
        if self.deferred_mapping and not self.passthrough:
            raise ValueError("deferred mapping requires a passthrough VF")


class Hypervisor:
    """Kata-QEMU: builds and tears down microVMs on one host."""

    def __init__(self, sim, cpu, kvm, vfio, mmu, spec, jitter, fastiovd=None,
                 pf_mailbox=None):
        from repro.sim.sync import Mutex

        self._sim = sim
        self._cpu = cpu
        self._kvm = kvm
        self._vfio = vfio
        self._mmu = mmu
        self._spec = spec
        self._jitter = jitter.fork("hypervisor")
        self._fastiovd = fastiovd
        #: PF admin mailbox, shared with the binding layer: the guest VF
        #: driver negotiates through it during init (§3.2.4).
        self.pf_mailbox = pf_mailbox
        #: virtiofsd spawn/registration is serialized host-wide [42].
        self._virtiofs_mutex = Mutex(sim, name="virtiofsd-mgmt")
        self.vms_created = 0

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def spawn_virtiofsd(self, timer):
        """Spawn the per-VM virtiofsd daemon (runtime-side, pre-VM).

        Registration with the shared daemon-management state is
        serialized host-wide — a software bottleneck the companion
        measurement study [42] documents; it accounts for most of the
        `2-virtiofs` time at concurrency 200.
        """
        spec = self._spec
        with timer.step("2-virtiofs"):
            yield self._virtiofs_mutex.acquire()
            try:
                # The critical section is real work (process spawn,
                # shared-state update): CPU pressure stretches it, which
                # amplifies the queue behind it.
                yield self._cpu.work(
                    spec.virtiofs_lock_hold_s
                    * self._jitter.factor(spec.jitter_sigma)
                )
            finally:
                self._virtiofs_mutex.release()

    def create_microvm(self, name, memory_bytes, plan, timer):
        """Build one microVM ready for guest boot; returns a Microvm."""
        spec = self._spec
        sigma = spec.jitter_sigma
        layout = GuestMemoryLayout.for_vm(spec, memory_bytes)
        microvm = Microvm(self._sim, name, layout, plan)

        with timer.step("vm-create"):
            yield Timeout(spec.vm_create_base_s * self._jitter.factor(sigma))
            yield self._cpu.work(spec.vm_create_cpu_s * self._jitter.factor(sigma))
        microvm.vm = self._kvm.create_vm(name, spec.page_size, pid=microvm.pid)

        # -- RAM region -------------------------------------------------
        if plan.passthrough and plan.deferred_mapping:
            # vIOMMU baseline (§8): the domain exists, but nothing is
            # mapped up front — memory stays demand-paged and the IOMMU
            # emulation maps pages at first DMA (see viommu_map_range).
            microvm.domain = self._vfio.create_domain(name)
            mapping = self._mmu.create_mapping(microvm.pid, "ram", layout.ram_bytes)
            microvm.anon_mappings["ram"] = mapping
            ram_backing = AnonBacking(mapping)
        elif plan.passthrough:
            microvm.domain = self._vfio.create_domain(name)
            with timer.step("1-dma-ram"):
                ram_region = yield from self._vfio.dma_map(
                    microvm.domain,
                    owner=microvm.pid,
                    label="ram",
                    nbytes=layout.ram_bytes,
                    gpa_base=layout.ram_gpa,
                    policy=plan.zeroing_policy,
                )
            microvm.mapped_regions["ram"] = ram_region
            ram_backing = PinnedBacking(ram_region)
        else:
            mapping = self._mmu.create_mapping(microvm.pid, "ram", layout.ram_bytes)
            microvm.anon_mappings["ram"] = mapping
            ram_backing = AnonBacking(mapping)
        yield from self._kvm.register_slot(
            microvm.vm, layout.ram_gpa, ram_backing, "ram"
        )

        # -- ROM load (hypervisor writes BIOS + kernel into RAM head) ---
        with timer.step("rom-load"):
            yield from self._protect_then_write(
                microvm, layout.rom_gpa, layout.rom_bytes, "hypervisor:kernel",
                region=microvm.mapped_regions.get("ram"),
            )

        # -- virtioFS device realization (vhost-user-fs handshake) -------
        # The virtiofsd *daemon* itself was spawned by the runtime
        # before VM creation (see :meth:`spawn_virtiofsd`).
        with timer.step("2-virtiofs"):
            yield Timeout(spec.virtiofs_setup_base_s * self._jitter.factor(sigma))
            yield self._cpu.work(
                spec.virtiofs_setup_cpu_s * self._jitter.factor(sigma)
            )
            microvm.virtiofs = VirtioFS(
                self._sim, self._cpu, self._kvm, spec, microvm,
                proactive_faults=plan.proactive_virtio_faults,
            )

        # -- image region -------------------------------------------------
        if (plan.passthrough and not plan.skip_image_mapping
                and not plan.deferred_mapping):
            with timer.step("3-dma-image"):
                image_region = yield from self._vfio.dma_map(
                    microvm.domain,
                    owner=microvm.pid,
                    label="image",
                    nbytes=layout.image_bytes,
                    gpa_base=layout.image_gpa,
                    policy=plan.zeroing_policy,
                )
            microvm.mapped_regions["image"] = image_region
            image_backing = PinnedBacking(image_region)
            yield from self._kvm.register_slot(
                microvm.vm, layout.image_gpa, image_backing, "image"
            )
            with timer.step("image-load"):
                yield from self._protect_then_write(
                    microvm, layout.image_gpa, layout.image_bytes,
                    "hypervisor:image", region=image_region,
                )
        else:
            # FastIOV's skip (or the non-passthrough path): the image is
            # served from the shared host page cache — no per-VM frames,
            # no zeroing (§4.3.1 "falls back into non-DMA logic").
            cached = self._mmu.open_cached_file(
                MICROVM_IMAGE_FILE, layout.image_bytes,
                content_tag="hypervisor:image",
            )
            image_backing = FileBacking(cached)
            yield from self._kvm.register_slot(
                microvm.vm, layout.image_gpa, image_backing, "image"
            )

        # -- VF attach (VFIO device open + PCIe emulation) ---------------
        if plan.passthrough:
            with timer.step("4-vfio-dev"):
                handle = yield from self._vfio.open_device(
                    plan.vf, opener=microvm.pid
                )
            microvm.vf_handle = handle
            microvm.vf = plan.vf
            plan.vf.assigned_to = name

        microvm.guest = GuestKernel(
            self._sim, self._cpu, self._kvm, spec, self._jitter, microvm,
            pf_mailbox=self.pf_mailbox,
        )
        self.vms_created += 1
        return microvm

    def _protect_then_write(self, microvm, gpa_base, nbytes, tag, region):
        """Hypervisor write with the instant-zeroing-list protocol.

        With decoupled zeroing, the written pages must leave the lazy
        table *before* the write (instant-zeroing list) or the guest's
        first access will zero them and crash.  The injection knob
        ``use_instant_zeroing_list=False`` skips the protection.
        """
        plan = microvm.plan
        decoupled = (
            plan.passthrough
            and plan.zeroing_policy.mode is ZeroingMode.DECOUPLED
            and region is not None
        )
        if decoupled and plan.use_instant_zeroing_list:
            page_size = microvm.layout.page_size
            first = (gpa_base - region.gpa_base) // page_size
            count = -(-nbytes // page_size)
            pages = [
                region.allocation.page_at_index(i)
                for i in range(first, first + count)
            ]
            yield from self._fastiovd.register_instant(microvm.pid, pages)
        # The write itself: load from disk/initrd + memcpy.
        yield self._cpu.work(nbytes / self._spec.guest_memcpy_bytes_per_cpu_s)
        yield from self._kvm.host_write_range(microvm.vm, gpa_base, nbytes, tag)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def destroy_microvm(self, microvm):
        """Release everything the microVM held (container recycled)."""
        if microvm.destroyed:
            raise ValueError(f"{microvm.name}: destroyed twice")
        if microvm.vf_handle is not None and not microvm.vf_handle.closed:
            yield from self._vfio.close_device(microvm.vf_handle)
        if microvm.vf is not None:
            microvm.vf.assigned_to = None
        for region in microvm.mapped_regions.values():
            yield from self._vfio.dma_unmap(region)
        if microvm.domain is not None and microvm.plan.deferred_mapping:
            # vIOMMU: tear down whatever the emulation mapped on demand.
            yield from self._vfio.viommu_unmap_all(microvm.domain)
        for mapping in microvm.anon_mappings.values():
            mapping.free_all()
        if microvm.domain is not None:
            self._vfio.destroy_domain(microvm.name)
        self._kvm.destroy_vm(microvm.vm)
        microvm.destroyed = True
        # The guest kernel and virtioFS point back at the microVM; drop
        # the microVM's side so a recycled sandbox is freed by refcount.
        # (An asynchronous VF init still running holds its guest.)
        microvm.guest = None
        microvm.virtiofs = None

    def __repr__(self):
        return f"<Hypervisor vms_created={self.vms_created}>"
