"""The simulated smartphone: turns a ground-truth walk into sensor data.

:class:`Smartphone` is the top of the sensing substrate.  Given a radio
environment, a device profile, and a walk, it produces the per-step
:class:`~repro.sensors.snapshot.SensorSnapshot` stream that every
localization scheme and UniLoc itself consume.  All randomness flows
through one generator so recorded traces are reproducible.
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
from repro.world import profile_of
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

        Each moment looks its environment up once
        (:meth:`~repro.world.Place.environment_at`) and hands the profile
        to the Wi-Fi, cellular and GPS models.  Each radio technology is
        one numpy pass over all its transmitters, and the GPS satellite
        count and HDOP come from the environment's memoized sky view
        (:class:`~repro.radio.RadioEnvironment`).  Every draw comes from
        one generator, in a fixed order per moment: Wi-Fi noise (one
        vector draw), cellular noise (one vector draw), light, landmark
        detections, the GPS fix, the IMU.

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
        snapshots = []
        for moment in walk.moments:
            position = moment.position
            env_profile = profile_of(place.environment_at(position))
            wifi = self.device.apply_to_scan(
                self.radio.wifi_rssi(position, env_profile, rng)
            )
            cell = self.device.apply_to_scan(
                self.radio.cell_rssi(position, env_profile, rng)
            )
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
