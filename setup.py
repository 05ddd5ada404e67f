"""Setuptools metadata for the ``repro`` package (sources under ``src/``).

Install with ``pip install -e .``.  numpy is the only runtime
dependency; scipy is needed only for the ILP energy bound
(``repro.mapping.energy_lower_bound``), hence the ``ilp`` extra:
``pip install -e '.[ilp]'``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={"ilp": ["scipy"]},
)
