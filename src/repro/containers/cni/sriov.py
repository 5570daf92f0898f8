"""The SR-IOV CNI plugin, in its three incarnations.

* **True vanilla** (``rebind_flaw=True``): the upstream plugin's flow
  (§5): bind the VF to the host network driver to obtain a netdev,
  configure it, move it to the container NNS — and leave the runtime to
  unbind/rebind vfio-pci afterwards.  This is the configuration that
  takes minutes at concurrency 200.
* **Fixed vanilla** (``rebind_flaw=False``, no FastIOV flags): VFs are
  pre-bound to vfio-pci once at host boot; the plugin creates a cheap
  *dummy* netdev that carries the IP configuration and identifies the
  VF to the Kata runtime.  This is the baseline used throughout the
  paper's evaluation.
* **FastIOV**: same plugin flow as fixed vanilla, with the kernel/
  hypervisor optimizations selected through the attachment's
  :class:`VirtNetworkPlan` (decoupled zeroing, image-mapping skip) and
  the host's lock policy / runtime asynchrony chosen at host build
  time.
"""

from repro.containers.cni.base import CniPlugin, NetworkAttachment
from repro.oskernel.binding import HOST_NETDEV_DRIVER
from repro.oskernel.vfio import (
    VFIO_DRIVER_NAME,
    ZeroingMode,
    ZeroingPolicy,
)
from repro.sim.core import Timeout
from repro.virt.hypervisor import VirtNetworkPlan


class VfPoolExhausted(Exception):
    """No free VF remains for a new container."""


class SriovCni(CniPlugin):
    """SR-IOV CNI plugin with a VF pool."""

    name = "sriov"

    def __init__(
        self,
        host,
        rebind_flaw=False,
        decoupled_zeroing=False,
        prezeroed_fraction=0.0,
        skip_image_mapping=False,
        use_instant_zeroing_list=True,
        proactive_virtio_faults=True,
        vdpa=False,
        deferred_mapping=False,
    ):
        super().__init__(host)
        self.rebind_flaw = rebind_flaw
        self.vdpa = vdpa
        self.deferred_mapping = deferred_mapping
        self._zeroing_policy = ZeroingPolicy(
            mode=(
                ZeroingMode.DECOUPLED if decoupled_zeroing else ZeroingMode.EAGER
            ),
            prezeroed_fraction=prezeroed_fraction,
        )
        self._skip_image_mapping = skip_image_mapping
        self._use_instant_zeroing_list = use_instant_zeroing_list
        self._proactive_virtio_faults = proactive_virtio_faults
        self._free_vfs = list(host.nic.pf.vfs)
        self._mac_counter = 0

    # ------------------------------------------------------------------
    # VF pool
    # ------------------------------------------------------------------
    def allocate_vf(self):
        if not self._free_vfs:
            raise VfPoolExhausted(
                f"all {len(self._host.nic.pf.vfs)} VFs are in use"
            )
        return self._free_vfs.pop(0)

    def release_vf(self, vf):
        self._free_vfs.append(vf)

    @property
    def free_vf_count(self):
        return len(self._free_vfs)

    def _next_mac(self):
        self._mac_counter += 1
        return f"02:00:00:00:{self._mac_counter // 256:02x}:{self._mac_counter % 256:02x}"

    # ------------------------------------------------------------------
    # setup (t_config in Fig. 4)
    # ------------------------------------------------------------------
    def setup_network(self, container, timer):
        host = self._host
        spec = host.spec
        vf = self.allocate_vf()
        mac = self._next_mac()
        ip = self.next_ip()
        yield Timeout(spec.cni_invoke_base_s)
        # Set VF parameters through the PF driver.
        yield Timeout(spec.pf_configure_vf_s)
        host.nic.pf.configure_vf(vf, mac=mac)

        if self.rebind_flaw:
            # Upstream flow: VF must present a host netdev, so bind the
            # host network driver (expensive, PF-mailbox-serialized).
            if vf.driver == VFIO_DRIVER_NAME:
                with timer.step("unbind-vfio"):
                    yield from host.binding.unbind(vf)
            with timer.step("bind-host-driver"):
                yield from host.binding.bind(vf, HOST_NETDEV_DRIVER)
            netdev = yield from host.hostnet.create_device(
                f"vfnet-{container.name}", "dummy"
            )
            netdev.kind = "vf-netdev"
        else:
            # Fixed flow (§5): VFs stay bound to vfio-pci; a dummy
            # interface carries identification + IP configuration.
            netdev = yield from host.hostnet.create_device(
                f"dummy-{container.name}", "dummy"
            )
        yield from host.hostnet.configure(netdev, ip_address=ip, mac=mac, up=True)
        yield from host.hostnet.move_to_nns(netdev, container.nns.name)
        container.nns.add_interface(netdev)

        plan = VirtNetworkPlan(
            passthrough=True,
            vf=vf,
            zeroing_policy=self._zeroing_policy,
            skip_image_mapping=self._skip_image_mapping,
            use_instant_zeroing_list=self._use_instant_zeroing_list,
            proactive_virtio_faults=self._proactive_virtio_faults,
            vdpa=self.vdpa,
            deferred_mapping=self.deferred_mapping,
        )
        return NetworkAttachment(plan=plan, vf=vf, netdev=netdev, ip_address=ip)

    def teardown_network(self, container, attachment):
        host = self._host
        yield from host.hostnet.delete_device(attachment.netdev.name)
        if self.rebind_flaw and attachment.vf.driver == HOST_NETDEV_DRIVER:
            yield from host.binding.unbind(attachment.vf)
            yield from host.binding.bind(attachment.vf, VFIO_DRIVER_NAME)
        host.nic.pf.reset_vf(attachment.vf)
        self.release_vf(attachment.vf)
