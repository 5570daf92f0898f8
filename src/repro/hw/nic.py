"""SR-IOV NIC: physical function, virtual functions, and the DMA engine.

Models the paper's Intel E810-class adapter (§3.1): one Physical
Function that owns the hardware resources and can carve out up to
``max_vfs`` Virtual Functions, each a PCI function on the same bus with
*bus-level* reset only (the E810 does not support slot-level VF reset,
which is what forces all VFs into one VFIO devset — §3.2.2).

The :class:`DmaEngine` performs device-side memory accesses through an
IOMMU domain, page by page, marking written frames with the writer's
tag.  It is how serverless download traffic lands in guest RX buffers
in the Fig. 15/16 experiments, and how DMA-vs-zeroing correctness is
exercised in tests.
"""

from repro.hw.errors import HardwareError
from repro.hw.pci import PciDevice, ResetScope


class VirtualFunction(PciDevice):
    """One SR-IOV VF.

    Attributes:
        index: VF index within its PF.
        pf: Owning :class:`PhysicalFunction`.
        mac: Assigned MAC address (set by the CNI via the PF driver).
        vlan: Assigned VLAN id, or None.
        assigned_to: Name of the microVM currently using the VF, or None.
    """

    def __init__(self, pf, index, bdf, reset_scope=ResetScope.BUS):
        super().__init__(bdf, f"{pf.nic.model}-vf{index}", reset_scope)
        self.pf = pf
        self.index = index
        self.mac = None
        self.vlan = None
        self.assigned_to = None
        self.netdev_name = None

    @property
    def is_assigned(self):
        return self.assigned_to is not None

    def __repr__(self):
        return (
            f"<VF {self.bdf} idx={self.index} driver={self.driver!r} "
            f"assigned_to={self.assigned_to!r}>"
        )


class PhysicalFunction(PciDevice):
    """The PF: owns NIC hardware resources and manages VF lifecycle."""

    def __init__(self, nic, bdf):
        super().__init__(bdf, f"{nic.model}-pf", ResetScope.BUS)
        self.nic = nic
        self.vfs = []

    def create_vfs(self, count, topology, bus_number):
        """Pre-create ``count`` VFs on the given bus (Kubelet boot-time
        task in Fig. 4; its cost is excluded from startup per §2.3)."""
        if self.vfs:
            raise HardwareError(f"PF {self.bdf}: VFs already created")
        if count > self.nic.max_vfs:
            raise HardwareError(
                f"PF {self.bdf}: {count} VFs exceeds hardware limit "
                f"{self.nic.max_vfs}"
            )
        bus, dev_fn = self.bdf.split(":")
        base_dev = int(dev_fn.split(".")[0], 16)
        for index in range(count):
            dev = base_dev + 1 + index // 8
            fn = index % 8
            vf = VirtualFunction(self, index, f"{bus}:{dev:02x}.{fn}")
            topology.attach(bus_number, vf)
            self.vfs.append(vf)
        return list(self.vfs)

    def configure_vf(self, vf, mac=None, vlan=None):
        """Set VF parameters through the PF driver (CNI ``t_config``)."""
        if vf.pf is not self:
            raise HardwareError(f"VF {vf.bdf} does not belong to PF {self.bdf}")
        if mac is not None:
            vf.mac = mac
        if vlan is not None:
            vf.vlan = vlan

    def reset_vf(self, vf):
        """Clear the VF's MAC and VLAN before it goes back to the pool.

        The model charges no virtual time for the reset: it rides the
        CNI teardown, which is off the startup path the paper measures.
        """
        if vf.pf is not self:
            raise HardwareError(f"VF {vf.bdf} does not belong to PF {self.bdf}")
        vf.mac = None
        vf.vlan = None

    def __repr__(self):
        return f"<PF {self.bdf} vfs={len(self.vfs)}>"


class SriovNic:
    """A whole SR-IOV adapter: PF + VFs + DMA engine."""

    def __init__(self, model, max_vfs, bandwidth_gbps, topology, bus_number, pf_bdf):
        self.model = model
        self.max_vfs = max_vfs
        self.bandwidth_gbps = bandwidth_gbps
        self.pf = PhysicalFunction(self, pf_bdf)
        topology.attach(bus_number, self.pf)
        self.dma = DmaEngine(self)

    def __repr__(self):
        return f"<SriovNic {self.model} vfs={len(self.pf.vfs)}/{self.max_vfs}>"


class DmaEngine:
    """Device-side DMA: translated reads/writes through an IOMMU domain.

    All accesses are decomposed into page-granular operations, because
    each page's translation is an independent IOMMU lookup and each
    written frame must be individually marked (for leak checking).
    """

    def __init__(self, nic):
        self.nic = nic
        self.bytes_written = 0
        self.bytes_read = 0

    def write(self, domain, iova, nbytes, writer_tag):
        """DMA-write ``nbytes`` starting at ``iova``.

        Raises :class:`~repro.hw.errors.DmaTranslationFault` if any page
        in the range is unmapped — DMA cannot page-fault (§3.2.3).
        Returns the list of physical pages written.
        """
        pages = []
        for page, _offset in self._walk(domain, iova, nbytes):
            page.write(writer_tag)
            pages.append(page)
        self.bytes_written += nbytes
        return pages

    def read(self, domain, iova, nbytes, reader_tag):
        """DMA-read ``nbytes`` (e.g. TX); enforces the residual check."""
        tags = []
        for page, _offset in self._walk(domain, iova, nbytes):
            tags.append(page.read(reader_tag))
        self.bytes_read += nbytes
        return tags

    def _walk(self, domain, iova, nbytes):
        if nbytes <= 0:
            raise ValueError(f"DMA length must be positive, got {nbytes}")
        offset = 0
        while offset < nbytes:
            page, in_page = domain.translate(iova + offset)
            step = min(page.size - in_page, nbytes - offset)
            yield page, in_page
            offset += step

    def __repr__(self):
        return (
            f"<DmaEngine {self.nic.model} written={self.bytes_written} "
            f"read={self.bytes_read}>"
        )
