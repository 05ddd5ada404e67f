"""Setuptools metadata for the ``repro`` package (sources under ``src/``).

Install with ``pip install -e .``.  numpy is the only runtime
dependency.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
