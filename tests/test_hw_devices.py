"""Unit tests for PCI topology, SR-IOV NIC, IOMMU, and EPT models."""

import pytest

from repro.hw.ept import EPT, EptFault
from repro.hw.errors import DmaTranslationFault, HardwareError
from repro.hw.iommu import IOMMU
from repro.hw.memory import PhysicalMemory
from repro.hw.nic import SriovNic
from repro.hw.pci import PciDevice, PciTopology, ResetScope

PAGE = 4096


def make_nic(vf_count=8):
    topo = PciTopology()
    topo.add_bus(0x3B)
    nic = SriovNic(
        model="intel-e810",
        max_vfs=256,
        bandwidth_gbps=25,
        topology=topo,
        bus_number=0x3B,
        pf_bdf="3b:00.0",
    )
    vfs = nic.pf.create_vfs(vf_count, topo, 0x3B)
    return topo, nic, vfs


# ----------------------------------------------------------------------
# PCI
# ----------------------------------------------------------------------
def test_topology_attach_and_find():
    topo = PciTopology()
    topo.add_bus(1)
    dev = PciDevice("01:00.0", "thing")
    topo.attach(1, dev)
    assert topo.find("01:00.0") is dev
    assert dev.bus.number == 1


def test_duplicate_bdf_rejected():
    topo = PciTopology()
    topo.add_bus(1)
    topo.attach(1, PciDevice("01:00.0", "a"))
    with pytest.raises(HardwareError):
        topo.attach(1, PciDevice("01:00.0", "b"))


def test_device_cannot_join_two_buses():
    topo = PciTopology()
    topo.add_bus(1)
    topo.add_bus(2)
    dev = PciDevice("01:00.0", "a")
    topo.attach(1, dev)
    with pytest.raises(HardwareError):
        topo.buses[2].attach(dev)


def test_find_missing_device_raises():
    topo = PciTopology()
    with pytest.raises(HardwareError):
        topo.find("ff:00.0")


# ----------------------------------------------------------------------
# SR-IOV NIC
# ----------------------------------------------------------------------
def test_vf_creation_places_vfs_on_pf_bus():
    topo, nic, vfs = make_nic(8)
    assert len(vfs) == 8
    assert all(vf.bus is nic.pf.bus for vf in vfs)
    assert topo.buses[0x3B].device_count == 9  # PF + 8 VFs
    assert len({vf.bdf for vf in vfs}) == 8


def test_vfs_have_bus_level_reset_like_e810():
    _topo, _nic, vfs = make_nic(4)
    assert all(vf.reset_scope is ResetScope.BUS for vf in vfs)


def test_vf_count_limited_by_hardware():
    topo = PciTopology()
    topo.add_bus(0)
    nic = SriovNic("n", 4, 25, topo, 0, "00:00.0")
    with pytest.raises(HardwareError):
        nic.pf.create_vfs(5, topo, 0)


def test_vfs_cannot_be_created_twice():
    topo, nic, _vfs = make_nic(2)
    with pytest.raises(HardwareError):
        nic.pf.create_vfs(2, topo, 0x3B)


def test_configure_vf_sets_parameters():
    _topo, nic, vfs = make_nic(2)
    nic.pf.configure_vf(vfs[0], mac="02:00:00:00:00:01", vlan=100)
    assert vfs[0].mac == "02:00:00:00:00:01"
    assert vfs[0].vlan == 100
    assert vfs[1].mac is None


def test_reset_vf_clears_parameters():
    _topo, nic, vfs = make_nic(1)
    nic.pf.configure_vf(vfs[0], mac="02:00:00:00:00:01", vlan=100)
    nic.pf.reset_vf(vfs[0])
    assert vfs[0].mac is None
    assert vfs[0].vlan is None


def test_configure_foreign_vf_rejected():
    _topo1, nic1, _ = make_nic(1)
    topo2 = PciTopology()
    topo2.add_bus(0)
    nic2 = SriovNic("other", 8, 25, topo2, 0, "00:00.0")
    vf2 = nic2.pf.create_vfs(1, topo2, 0)[0]
    with pytest.raises(HardwareError):
        nic1.pf.configure_vf(vf2, mac="02:00:00:00:00:99")


# ----------------------------------------------------------------------
# IOMMU
# ----------------------------------------------------------------------
def test_iommu_map_translate_unmap_cycle():
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(2 * PAGE, owner="vm0")
    for page in region.pages:
        page.pin()
    iommu = IOMMU()
    domain = iommu.create_domain("vm0")
    for i, page in enumerate(region.pages):
        domain.map_page(i * PAGE, page)
    page, offset = domain.translate(PAGE + 123)
    assert page is region.pages[1]
    assert offset == 123
    assert domain.mapped_bytes == 2 * PAGE
    domain.unmap_page(0)
    assert not domain.is_mapped(0)
    assert domain.is_mapped(PAGE)


def test_iommu_requires_pinned_pages():
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(PAGE, owner="vm0")
    domain = IOMMU().create_domain("vm0")
    with pytest.raises(HardwareError):
        domain.map_page(0, region.pages[0])


def test_iommu_unmapped_access_is_hard_fault():
    domain = IOMMU().create_domain("vm0")
    with pytest.raises(DmaTranslationFault):
        domain.translate(0x1000)


def test_iommu_rejects_double_map_and_misalignment():
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(PAGE, owner="vm0")
    region.pages[0].pin()
    domain = IOMMU().create_domain("vm0")
    domain.map_page(0, region.pages[0])
    with pytest.raises(HardwareError):
        domain.map_page(0, region.pages[0])
    with pytest.raises(HardwareError):
        domain.map_page(PAGE + 1, region.pages[0])


def test_iommu_domain_lifecycle():
    iommu = IOMMU()
    iommu.create_domain("a")
    with pytest.raises(HardwareError):
        iommu.create_domain("a")
    iommu.destroy_domain("a")
    with pytest.raises(HardwareError):
        iommu.destroy_domain("a")


def test_iommu_destroy_with_live_mappings_raises():
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(PAGE, owner="vm0")
    region.pages[0].pin()
    iommu = IOMMU()
    domain = iommu.create_domain("vm0")
    domain.map_page(0, region.pages[0])
    with pytest.raises(HardwareError):
        iommu.destroy_domain("vm0")


# ----------------------------------------------------------------------
# DMA engine
# ----------------------------------------------------------------------
def make_mapped_domain(npages=4):
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(npages * PAGE, owner="vm0")
    domain = IOMMU().create_domain("vm0")
    for i, page in enumerate(region.pages):
        page.pin()
        domain.map_page(i * PAGE, page)
    return region, domain


def test_dma_write_marks_pages_with_writer_tag():
    _topo, nic, _vfs = make_nic(1)
    region, domain = make_mapped_domain()
    pages = nic.dma.write(domain, 0, 2 * PAGE + 100, writer_tag="nic-rx")
    assert len(pages) == 3
    assert all(p.content_tag == "nic-rx" for p in pages)
    assert nic.dma.bytes_written == 2 * PAGE + 100


def test_dma_to_unmapped_iova_faults():
    _topo, nic, _vfs = make_nic(1)
    _region, domain = make_mapped_domain(npages=2)
    with pytest.raises(DmaTranslationFault):
        nic.dma.write(domain, PAGE, 2 * PAGE, writer_tag="nic-rx")


def test_dma_read_of_residual_page_is_a_leak():
    from repro.hw.errors import ResidualDataLeak

    _topo, nic, _vfs = make_nic(1)
    _region, domain = make_mapped_domain(npages=1)
    with pytest.raises(ResidualDataLeak):
        nic.dma.read(domain, 0, PAGE, reader_tag="nic-tx")


def test_dma_rejects_nonpositive_length():
    _topo, nic, _vfs = make_nic(1)
    _region, domain = make_mapped_domain(npages=1)
    with pytest.raises(ValueError):
        nic.dma.write(domain, 0, 0, writer_tag="x")


# ----------------------------------------------------------------------
# EPT
# ----------------------------------------------------------------------
def test_ept_miss_faults_and_counts():
    ept = EPT("vm0", PAGE)
    with pytest.raises(EptFault) as excinfo:
        ept.translate(PAGE + 5)
    assert excinfo.value.gpa == PAGE
    assert ept.fault_count == 1


def test_ept_insert_then_translate():
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(PAGE, owner="vm0")
    ept = EPT("vm0", PAGE)
    ept.insert(0, region.pages[0])
    page, offset = ept.translate(42)
    assert page is region.pages[0]
    assert offset == 42
    assert ept.fault_count == 0


def test_ept_duplicate_insert_and_bad_size_rejected():
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(PAGE, owner="vm0")
    ept = EPT("vm0", PAGE)
    ept.insert(0, region.pages[0])
    with pytest.raises(HardwareError):
        ept.insert(0, region.pages[0])
    bad_ept = EPT("vm1", 2 * PAGE)
    with pytest.raises(HardwareError):
        bad_ept.insert(0, region.pages[0])


def test_ept_invalidate():
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(PAGE, owner="vm0")
    ept = EPT("vm0", PAGE)
    ept.insert(0, region.pages[0])
    ept.invalidate(0)
    assert not ept.has_entry(0)
    with pytest.raises(HardwareError):
        ept.invalidate(0)


def test_ept_fault_fires_once_per_page_when_serviced():
    """The §6.5 claim's mechanism: one interception per page, ever."""
    mem = PhysicalMemory(64 * PAGE, PAGE)
    region = mem.allocate(2 * PAGE, owner="vm0")
    ept = EPT("vm0", PAGE)
    for gpa in (0, 100, PAGE, PAGE + 1, 300, PAGE * 2 - 1):
        try:
            ept.translate(gpa)
        except EptFault as fault:
            ept.insert(fault.gpa, region.pages[fault.gpa // PAGE])
    assert ept.fault_count == 2
