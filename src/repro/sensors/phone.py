"""The simulated smartphone: turns a ground-truth walk into sensor data.

:class:`Smartphone` is the top of the sensing substrate.  Given a radio
environment, a device profile, and a walk, it produces the per-step
:class:`~repro.sensors.snapshot.SensorSnapshot` stream that every
localization scheme and UniLoc itself consume.  All randomness flows
through one generator so recorded traces are reproducible; the radio
pass that computes a walk's noise-free readings draws nothing, so the
draw order per moment is that of recording one moment at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.motion import Walk
from repro.radio import RadioEnvironment
from repro.sensors.device import DeviceProfile
from repro.sensors.gps import GpsReceiver
from repro.sensors.imu import ImuSimulator
from repro.sensors.snapshot import SensorSnapshot
from repro.world.geodesy import NTU_FRAME, LocalTangentPlane

#: Probability that a physically present landmark signature is actually
#: detected as the walker passes it.
LANDMARK_DETECTION_PROB = 0.9


@dataclass
class Smartphone:
    """A phone model carried through a radio environment."""

    radio: RadioEnvironment
    device: DeviceProfile
    frame: LocalTangentPlane = NTU_FRAME

    def record_walk(self, walk: Walk, seed: int = 0) -> list[SensorSnapshot]:
        """Record the full sensor trace of a walk.

        Every scan is measured through the *device's* RSSI response, so a
        non-reference device produces offset readings until some consumer
        applies online calibration (Fig. 8d).

        Recording runs in two phases.  The first is deterministic and
        draws nothing: it looks up every moment's environment once
        (:meth:`~repro.world.Place.environment_at`) and computes the
        noise-free Wi-Fi and cellular readings of the whole walk in one
        radio pass (:meth:`~repro.radio.RadioEnvironment.wifi_means`,
        :meth:`~repro.radio.RadioEnvironment.cell_means`), counting walls
        only for the APs that can still be heard.  The second walks the
        moments and draws from one generator, in a fixed order per
        moment: Wi-Fi noise (one vector draw), cellular noise (one
        vector draw), light, landmark detections, the GPS fix, the IMU.
        Each scan dict is built once, after its noise; the GPS
        satellite count and HDOP come from the environment's memoized
        sky view.

        Args:
            walk: the ground-truth walk to sense.
            seed: RNG seed for this recording session.

        Returns:
            One snapshot per walk moment.
        """
        rng = np.random.default_rng(seed)
        imu = ImuSimulator(device=self.device, gait=walk.gait, rng=rng)
        gps = GpsReceiver(radio=self.radio, frame=self.frame, rng=rng)
        place = self.radio.place
        positions = [moment.position for moment in walk.moments]
        profiles = self.radio.profiles_at(positions)
        wifi_means = self.radio.wifi_means(positions, profiles)
        cell_means = self.radio.cell_means(positions, profiles)
        apply_to_scan = self.device.apply_to_scan
        snapshots = []
        for i, (moment, env_profile) in enumerate(zip(walk.moments, profiles)):
            position = moment.position
            wifi = apply_to_scan(wifi_means.scan(i, rng))
            cell = apply_to_scan(cell_means.scan(i, rng))
            light = max(
                0.0,
                float(
                    rng.normal(
                        env_profile.ambient_light_lux,
                        env_profile.ambient_light_lux * 0.15,
                    )
                ),
            )
            detected = tuple(
                lm
                for lm in place.floorplan.detectable_landmarks(position)
                if rng.random() < LANDMARK_DETECTION_PROB
            )
            snapshots.append(
                SensorSnapshot(
                    index=moment.index,
                    time_s=moment.time_s,
                    wifi_scan=wifi,
                    cell_scan=cell,
                    gps=gps.observe(position, env_profile),
                    imu=imu.sense(moment, env_profile.magnetic_sigma_ut),
                    light_lux=light,
                    detected_landmarks=detected,
                )
            )
        return snapshots
